package main

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"memagg"
	"memagg/internal/agg"
	"memagg/internal/cluster"
)

// The reflected envelopes the append encoder replaced: encoding/json over
// these is the reference every encoder output must equal byte for byte.
type refQueryResponse struct {
	Query     string `json:"query"`
	Watermark uint64 `json:"watermark"`
	Result    any    `json:"result"`
}

type refClusterQueryResponse struct {
	Query     string            `json:"query"`
	Watermark cluster.Watermark `json:"watermark"`
	Rows      uint64            `json:"rows"`
	Result    any               `json:"result"`
}

// encodeRef is what writeJSON wrote for v.
func encodeRef(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatalf("encoding/json: %v", err)
	}
	return buf.Bytes()
}

// checkEnvelopes encodes result in all three envelopes, under name (the
// query spelling, and the view's name and query), with both encoders.
func checkEnvelopes(t *testing.T, name string, watermark uint64, wm cluster.Watermark, result any) {
	t.Helper()
	same := func(what string, got, want []byte) {
		t.Helper()
		if !bytes.Equal(got, want) {
			t.Fatalf("%s body differs from encoding/json\n got %q\nwant %q", what, got, want)
		}
	}
	same("query", appendQueryBody(nil, name, watermark, result),
		encodeRef(t, refQueryResponse{Query: name, Watermark: watermark, Result: result}))
	same("cluster query", appendClusterQueryBody(nil, name, wm, result),
		encodeRef(t, refClusterQueryResponse{Query: name, Watermark: wm, Rows: wm.Total(), Result: result}))
	res := &memagg.ViewResult{
		Name: name, Query: name, WindowStart: watermark / 2, WindowEnd: watermark,
		PanesLive: int(watermark % 7), Rows: watermark / 3, Groups: -int(watermark % 5),
		Version: ^watermark, Truncated: watermark%2 == 1, Value: result,
	}
	same("view", appendViewBody(nil, res), encodeRef(t, res))
}

// specialFloats are the values where encoding/json's float format turns:
// signed zero, the 'e'-form cutoffs at 1e-6 and 1e21 from both sides,
// one-digit negative exponents (e-07 -> e-7), subnormals and the extremes.
var specialFloats = []float64{
	0, math.Copysign(0, -1), 5e-324, -5e-324, math.SmallestNonzeroFloat64,
	1e-7, -1e-7, 1e-6, 9.999999999999999e-7, 1.0000000000000002e-6,
	1e20, 1e21, -1e21, 9.999999999999998e20, 1e-300, 1e300,
	math.MaxFloat64, -math.MaxFloat64, 0.1, 1.5, 2.5e-8, 123456789.125, 1 << 63,
}

// escapeNames need every branch of JSON string escaping: quotes and
// backslashes, short and \u00XX control escapes, HTML-escaped <, >, &,
// invalid UTF-8, U+2028/U+2029, and multi-byte runes passed through.
var escapeNames = []string{
	"", "q1", `a"b\c`, "<script>&amp;</script>", "\x00\x01\x1f\x7f",
	"\b\f\n\r\t", "line\u2028para\u2029", "bad\xff\xfeutf8\xc3", "h\u00e9llo \u65e5\u672c \U0001f642",
}

// TestResultJSONMatchesEncodingJSON is the byte-identity gate over a fixed
// table: every result shape — nil, empty and populated row slices of each
// row type, both scalars — in every envelope, with the special floats and
// names that need escaping.
func TestResultJSONMatchesEncodingJSON(t *testing.T) {
	values := make([]memagg.GroupValue, len(specialFloats))
	for i, f := range specialFloats {
		values[i] = memagg.GroupValue{Key: uint64(i) * 0x9e3779b97f4a7c15, Value: f}
	}
	results := []any{
		[]memagg.GroupCount(nil), []memagg.GroupCount{},
		[]memagg.GroupCount{{Key: 0, Count: 0}, {Key: math.MaxUint64, Count: 1}, {Key: 42, Count: math.MaxUint64}},
		[]memagg.GroupValue(nil), []memagg.GroupValue{}, values,
		[]memagg.GroupStat(nil), []memagg.GroupStat{},
		[]memagg.GroupStat{{Key: 7, Value: 0}, {Key: 1 << 40, Value: math.MaxUint64}},
		uint64(0), uint64(math.MaxUint64),
	}
	for _, f := range specialFloats {
		results = append(results, f)
	}
	wms := []cluster.Watermark{nil, {}, {0}, {1, 2, math.MaxUint64 / 4}}
	for i, res := range results {
		for _, name := range escapeNames {
			checkEnvelopes(t, name, uint64(i)*1e17, wms[i%len(wms)], res)
		}
	}
}

// TestResultJSONEveryQuery runs every query the vocabulary has through a
// holistic stream — empty and populated, snapshot and view — and through
// the scalar and vector kernels' result conversion, and encodes each
// result both ways. A query whose result type the encoder does not know
// panics here; that is the closed-set check.
func TestResultJSONEveryQuery(t *testing.T) {
	var queries []agg.Query
	for id := agg.QCountByKey; ; id++ {
		q := agg.Query{ID: id, Op: agg.OpSum, P: 0.5, Lo: 2, Hi: 9}
		if q.Validate() != nil {
			break
		}
		if id == agg.QReduce {
			for _, op := range []agg.ReduceOp{agg.OpSum, agg.OpMin, agg.OpMax} {
				queries = append(queries, agg.Query{ID: id, Op: op})
			}
			continue
		}
		queries = append(queries, q)
	}
	s := memagg.NewStream(memagg.StreamOptions{Shards: 2, SealRows: 4, Holistic: true})
	t.Cleanup(func() { _ = s.Close() })
	for _, q := range queries {
		// The canonical spelling without its parameters: q7[2,9] -> q7.
		spelling := strings.FieldsFunc(q.String(), func(r rune) bool { return r == '[' || r == '(' })[0]
		if err := s.RegisterView(memagg.ViewSpec{Name: q.String(), Query: spelling, P: q.P, Lo: q.Lo, Hi: q.Hi,
			PaneRows: 8, Panes: 2}); err != nil {
			t.Fatalf("register %s: %v", q, err)
		}
	}
	check := func() {
		sn := s.Snapshot()
		for _, q := range queries {
			res, err := sn.Run(q)
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			checkEnvelopes(t, q.String(), sn.Watermark(), cluster.Watermark{sn.Watermark()}, res)
			view, err := s.View(q.String())
			if err != nil {
				t.Fatalf("view %s: %v", q, err)
			}
			if got, want := appendViewBody(nil, view), encodeRef(t, view); !bytes.Equal(got, want) {
				t.Fatalf("view %s body differs from encoding/json\n got %q\nwant %q", q, got, want)
			}
		}
	}
	check()
	keys := []uint64{1, 2, 1, 3, 9, 9, 5, 1 << 60, 2}
	vals := []uint64{10, 20, 30, 40, 5, 7, 1, math.MaxUint64, 3}
	if err := s.AppendChunk(memagg.Chunk{Keys: keys, Vals: vals}); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	check()
}

// FuzzResultJSON compares the append encoder against encoding/json for
// random rows of every row type (floats from arbitrary bit patterns),
// both scalars, and arbitrary names, in every envelope.
func FuzzResultJSON(f *testing.F) {
	for i, v := range specialFloats {
		f.Add(escapeNames[i%len(escapeNames)], uint64(i), uint64(i)*3, math.Float64bits(v), uint8(i))
	}
	f.Add("", uint64(0), uint64(0), uint64(0), uint8(0))
	f.Add("v", uint64(math.MaxUint64), uint64(math.MaxUint64), uint64(0x7fefffffffffffff), uint8(255))
	f.Fuzz(func(t *testing.T, name string, key, count, bits uint64, n uint8) {
		v := math.Float64frombits(bits)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return // not a result value: encoding/json refuses them
		}
		counts := make([]memagg.GroupCount, n%8)
		values := make([]memagg.GroupValue, n%8)
		stats := make([]memagg.GroupStat, n%8)
		for i := range counts {
			k := key + uint64(i)*0x9e3779b97f4a7c15
			counts[i] = memagg.GroupCount{Key: k, Count: count >> i}
			values[i] = memagg.GroupValue{Key: k, Value: v / float64(1-2*(i%2)) / float64(i+1)}
			stats[i] = memagg.GroupStat{Key: k, Value: count ^ k}
		}
		wm := cluster.Watermark{key, count, uint64(n)}
		for _, res := range []any{counts, values, stats, count, v} {
			checkEnvelopes(t, name, key, wm[:n%4], res)
		}
	})
}
