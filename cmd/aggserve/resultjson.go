package main

import (
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"

	"memagg"
	"memagg/internal/cluster"
)

// The result encoder: query and view bodies are appended straight into a
// byte slice for the closed set of shapes a result can take — the three
// row types of agg.Run (aliased as memagg.GroupCount, GroupValue and
// GroupStat) and the two scalars — with the bytes
// json.NewEncoder(w).Encode wrote for the reflected envelopes they
// replace, trailing newline included (resultjson_test.go compares the two
// on every shape). There is no reflection fallback: a result of any other
// type is a bug, and appendResult panics on it.

// appendQueryBody appends a node /v1/query body: the result tagged with
// the snapshot watermark it is consistent with.
func appendQueryBody(dst []byte, query string, watermark uint64, result any) []byte {
	dst = append(dst, `{"query":`...)
	dst = appendString(dst, query)
	dst = append(dst, `,"watermark":`...)
	dst = strconv.AppendUint(dst, watermark, 10)
	dst = append(dst, `,"result":`...)
	dst = appendResult(dst, result)
	return append(dst, "}\n"...)
}

// appendClusterQueryBody appends a router /v1/query body: the result
// tagged with the composed cluster watermark — the vector (one element per
// peer, in membership order) plus its total.
func appendClusterQueryBody(dst []byte, query string, wm cluster.Watermark, result any) []byte {
	dst = append(dst, `{"query":`...)
	dst = appendString(dst, query)
	dst = append(dst, `,"watermark":`...)
	if wm == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, v := range wm {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendUint(dst, v, 10)
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"rows":`...)
	dst = strconv.AppendUint(dst, wm.Total(), 10)
	dst = append(dst, `,"result":`...)
	dst = appendResult(dst, result)
	return append(dst, "}\n"...)
}

// appendViewBody appends a /v1/views/{name}/result body: res in
// memagg.ViewResult's JSON form.
func appendViewBody(dst []byte, res *memagg.ViewResult) []byte {
	dst = append(dst, `{"name":`...)
	dst = appendString(dst, res.Name)
	dst = append(dst, `,"query":`...)
	dst = appendString(dst, res.Query)
	dst = append(dst, `,"window_start":`...)
	dst = strconv.AppendUint(dst, res.WindowStart, 10)
	dst = append(dst, `,"window_end":`...)
	dst = strconv.AppendUint(dst, res.WindowEnd, 10)
	dst = append(dst, `,"panes_live":`...)
	dst = strconv.AppendInt(dst, int64(res.PanesLive), 10)
	dst = append(dst, `,"rows":`...)
	dst = strconv.AppendUint(dst, res.Rows, 10)
	dst = append(dst, `,"groups":`...)
	dst = strconv.AppendInt(dst, int64(res.Groups), 10)
	dst = append(dst, `,"version":`...)
	dst = strconv.AppendUint(dst, res.Version, 10)
	dst = append(dst, `,"truncated":`...)
	dst = strconv.AppendBool(dst, res.Truncated)
	dst = append(dst, `,"value":`...)
	dst = appendResult(dst, res.Value)
	return append(dst, "}\n"...)
}

// appendResult appends one query result: a row slice (null when nil, []
// when empty) or a scalar.
func appendResult(dst []byte, v any) []byte {
	switch r := v.(type) {
	case []memagg.GroupCount:
		return appendRows(dst, r, func(dst []byte, g memagg.GroupCount) []byte {
			dst = append(dst, `{"Key":`...)
			dst = strconv.AppendUint(dst, g.Key, 10)
			dst = append(dst, `,"Count":`...)
			return append(strconv.AppendUint(dst, g.Count, 10), '}')
		})
	case []memagg.GroupValue:
		return appendRows(dst, r, func(dst []byte, g memagg.GroupValue) []byte {
			dst = append(dst, `{"Key":`...)
			dst = strconv.AppendUint(dst, g.Key, 10)
			dst = append(dst, `,"Value":`...)
			return append(appendFloat(dst, g.Value), '}')
		})
	case []memagg.GroupStat:
		return appendRows(dst, r, func(dst []byte, g memagg.GroupStat) []byte {
			dst = append(dst, `{"Key":`...)
			dst = strconv.AppendUint(dst, g.Key, 10)
			dst = append(dst, `,"Value":`...)
			return append(strconv.AppendUint(dst, g.Value, 10), '}')
		})
	case uint64:
		return strconv.AppendUint(dst, r, 10)
	case float64:
		return appendFloat(dst, r)
	}
	panic(fmt.Sprintf("aggserve: no JSON encoding for result type %T", v))
}

// appendRows appends rows as a JSON array, row appending each element.
func appendRows[T any](dst []byte, rows []T, row func([]byte, T) []byte) []byte {
	if rows == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, r := range rows {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = row(dst, r)
	}
	return append(dst, ']')
}

// appendFloat appends f as encoding/json does: the shortest repr, in 'e'
// form below 1e-6 and at or above 1e21, with a one-digit negative
// exponent not zero-padded (1e-07 becomes 1e-7). Results are finite by
// construction (sums over counts, values of a multiset), so NaN and ±Inf —
// which encoding/json refuses — are bugs.
func appendFloat(dst []byte, f float64) []byte {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		panic(fmt.Sprintf("aggserve: non-finite result value %v", f))
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string the way json.Encoder does with
// its default HTML escaping: '"' and '\\' backslash-escaped, \b \f \n \r
// \t short-escaped, other control bytes and <, > and & as \u00XX, invalid
// UTF-8 as \ufffd, and U+2028/U+2029 as \u2028 / \u2029.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '"', '\\':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
