package memagg

import (
	"fmt"

	"memagg/internal/stragg"
)

// This file extends the public API to string group-by keys — the
// variable-length-key adaptation the paper's Section 3.1 anticipates. The
// same algorithm families apply: hash tables (linear probing, chaining), a
// string adaptive radix tree, and sort-based operators (MSD radix sort and
// Bentley–Sedgewick multikey quicksort). The ordered engines answer the
// string analogs of the ordered queries: lexicographic scalar median and
// prefix-restricted counting (the string form of Q7's range condition).

// StringBackend names a string-keyed algorithm.
type StringBackend string

// String-keyed backends.
const (
	StrHashLP        StringBackend = "StrHash_LP"       // linear probing
	StrHashSC        StringBackend = "StrHash_SC"       // separate chaining
	StrART           StringBackend = "StrART"           // string adaptive radix tree
	StrMSDRadix      StringBackend = "StrMSDRadix"      // MSD radix sort
	StrMultikeyQuick StringBackend = "StrMultikeyQuick" // multikey quicksort
)

// StringBackends lists every string backend.
func StringBackends() []StringBackend {
	return []StringBackend{StrHashLP, StrHashSC, StrART, StrMSDRadix, StrMultikeyQuick}
}

// StringGroupCount is one row of a string-keyed COUNT result.
type StringGroupCount = stragg.GroupCount

// StringGroupValue is one row of a string-keyed AVG or MEDIAN result.
type StringGroupValue = stragg.GroupFloat

// StringAggregator executes aggregation queries over string keys with one
// backend. Like Aggregator, it is stateless between calls.
type StringAggregator struct {
	backend StringBackend
	engine  stragg.Engine
}

// NewStrings returns a StringAggregator for the given backend.
func NewStrings(b StringBackend) (*StringAggregator, error) {
	e, err := stragg.ByName(string(b))
	if err != nil {
		return nil, fmt.Errorf("memagg: unknown string backend %q", b)
	}
	return &StringAggregator{backend: b, engine: e}, nil
}

// Backend returns the backend this aggregator runs on.
func (a *StringAggregator) Backend() StringBackend { return a.backend }

// CountByKey returns one (key, COUNT(*)) row per distinct string key.
// Order is lexicographic for sort- and tree-based backends, unspecified
// for hash-based ones.
func (a *StringAggregator) CountByKey(keys []string) []StringGroupCount {
	return nonNil(a.engine.VectorCount(keys))
}

// AvgByKey returns one (key, AVG(values)) row per distinct key.
func (a *StringAggregator) AvgByKey(keys []string, values []uint64) []StringGroupValue {
	return nonNil(a.engine.VectorAvg(keys, values))
}

// MedianByKey returns one (key, MEDIAN(values)) row per distinct key
// (holistic).
func (a *StringAggregator) MedianByKey(keys []string, values []uint64) []StringGroupValue {
	return nonNil(a.engine.VectorMedian(keys, values))
}

// MedianKey returns the lexicographic median key (lower middle for even
// counts). Hash backends return ErrUnsupportedQuery.
func (a *StringAggregator) MedianKey(keys []string) (string, error) {
	s, err := a.engine.ScalarMedianKey(keys)
	if err != nil {
		return "", ErrUnsupportedQuery
	}
	return s, nil
}

// CountByPrefix returns CountByKey restricted to keys starting with
// prefix — the string analog of CountRange. Hash backends return
// ErrUnsupportedQuery.
func (a *StringAggregator) CountByPrefix(keys []string, prefix string) ([]StringGroupCount, error) {
	rows, err := a.engine.PrefixCount(keys, prefix)
	if err != nil {
		return nil, ErrUnsupportedQuery
	}
	return nonNil(rows), nil
}
