package agg

import (
	"errors"
	"fmt"
)

// Category classifies an algorithm by its backing structure (the paper's
// Dimension 1).
type Category int

const (
	SortBased Category = iota
	HashBased
	TreeBased
	// Hybrid marks engines that route queries between the other families
	// at run time (the Adaptive engine).
	Hybrid
)

// String returns the category name.
func (c Category) String() string {
	switch c {
	case SortBased:
		return "sort"
	case HashBased:
		return "hash"
	case TreeBased:
		return "tree"
	case Hybrid:
		return "hybrid"
	default:
		return fmt.Sprintf("Category(%d)", int(c))
	}
}

// GroupCount is one row of a vector COUNT result (Q1/Q7).
type GroupCount struct {
	Key   uint64
	Count uint64
}

// GroupFloat is one row of a vector AVG or MEDIAN result (Q2/Q3).
type GroupFloat struct {
	Key   uint64
	Value float64
}

// ErrUnsupported is returned by operators a backend cannot execute
// meaningfully — e.g. scalar median on a hash table, which the paper
// excludes because hash tables cannot produce keys in lexicographic order.
var ErrUnsupported = errors.New("agg: query unsupported by this algorithm")

// Engine executes the paper's query set over one algorithm. Vector results
// are returned in the backend's natural order: sorted by key for sort- and
// tree-based engines, unspecified for hash-based ones (callers that need
// ordered output sort afterwards, and pay for it, exactly as a system using
// a hash aggregate would).
//
// Operators never modify the input slices.
type Engine interface {
	Name() string
	Category() Category

	// VectorCount executes Q1: SELECT key, COUNT(*) ... GROUP BY key.
	VectorCount(keys []uint64) []GroupCount
	// VectorAvg executes Q2: SELECT key, AVG(val) ... GROUP BY key.
	VectorAvg(keys, vals []uint64) []GroupFloat
	// VectorMedian executes Q3: SELECT key, MEDIAN(val) ... GROUP BY key.
	VectorMedian(keys, vals []uint64) []GroupFloat
	// ScalarMedian executes Q6: SELECT MEDIAN(key) FROM input.
	ScalarMedian(keys []uint64) (float64, error)
	// VectorCountRange executes Q7: Q1 restricted to lo <= key <= hi.
	VectorCountRange(keys []uint64, lo, hi uint64) ([]GroupCount, error)
}

// ScalarCount executes Q4: SELECT COUNT(col) FROM input. The paper notes it
// requires no grouping structure at all; it is a single counter any
// algorithm answers identically, so it lives here rather than on Engine.
func ScalarCount(keys []uint64) uint64 { return uint64(len(keys)) }

// ScalarAvg executes Q5: SELECT AVG(col) FROM input.
func ScalarAvg(vals []uint64) float64 { return Avg(vals) }

// avgState is the algebraic decomposition of AVG into the two distributive
// aggregates Sum and Count (Section 2).
type avgState struct {
	sum   uint64
	count uint64
}

func (s avgState) avg() float64 {
	if s.count == 0 {
		return 0
	}
	return float64(s.sum) / float64(s.count)
}
