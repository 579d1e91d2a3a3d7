package agg

import (
	"memagg/internal/arena"
	"memagg/internal/hashtbl"
)

// groupIter is what the emit helpers of kernels.go read out: a table's
// groups and their number. Every serial table and tree satisfies it, and
// so do the concurrent maps of Hash_LC and Hash_TBBSC.
type groupIter[V any] interface {
	Iterate(fn func(key uint64, val *V) bool)
	Len() int
}

// kvTable is the subset of a serial table's surface the operators need.
// The table engine carries one constructor per value type used by the
// query classes.
type kvTable[V any] interface {
	groupIter[V]
	Upsert(key uint64) *V
}

// rangeTable extends kvTable with the ordered-scan operations trees
// provide. Iterate is guaranteed to visit keys in ascending order.
type rangeTable[V any] interface {
	kvTable[V]
	Range(lo, hi uint64, fn func(key uint64, val *V) bool)
}

// tableEngine implements Engine over any serial table: the four hash
// tables of this file and the four trees of treeeng.go share one build
// and one iterate. Build phase: one Upsert per record with early
// aggregation (count/sum updated in place) via the monomorphized kernels
// of kernels.go; for the holistic Q3 the value is the group's buffered
// value list — a heap []uint64 under the go-runtime allocator, a chunked
// arena list under AllocArena (see alloc.go). Iterate phase: table
// iteration, in unspecified order on a hash table and in key order on a
// tree, which is what lets a tree answer the scalar-median and range
// queries natively (Q6/Q7 on a hash table are ErrUnsupported).
//
// The query bodies (count, avg, reduce, holistic) mark their phase
// boundaries on a clock the caller has started, or on none when it is
// nil. Hash_RX runs Hash_LP's bodies on every partition with no clock and
// Hash_GLB runs them as its serial fallback on its own, so neither ticks
// Hash_LP's series; Hash_PLAT builds its local tables with the kernels
// directly.
type tableEngine struct {
	name      string
	cat       Category
	alloc     Allocator
	newCount  func(capacity int) kvTable[uint64]
	newAvg    func(capacity int) kvTable[avgState]
	newList   func(capacity int) kvTable[[]uint64]
	newAList  func(capacity int) kvTable[arena.List]
	newReduce func(capacity int) kvTable[reduceState]
}

// HashLP returns the custom linear-probing engine ("Hash_LP").
func HashLP() Engine { return hashLP() }

func hashLP() *tableEngine {
	return &tableEngine{
		name:      "Hash_LP",
		cat:       HashBased,
		newCount:  func(n int) kvTable[uint64] { return hashtbl.NewLinearProbe[uint64](n) },
		newAvg:    func(n int) kvTable[avgState] { return hashtbl.NewLinearProbe[avgState](n) },
		newList:   func(n int) kvTable[[]uint64] { return hashtbl.NewLinearProbe[[]uint64](n) },
		newAList:  func(n int) kvTable[arena.List] { return hashtbl.NewLinearProbe[arena.List](n) },
		newReduce: func(n int) kvTable[reduceState] { return hashtbl.NewLinearProbe[reduceState](n) },
	}
}

// HashSC returns the separate-chaining engine ("Hash_SC").
func HashSC() Engine {
	return &tableEngine{
		name:      "Hash_SC",
		cat:       HashBased,
		newCount:  func(n int) kvTable[uint64] { return hashtbl.NewChained[uint64](n) },
		newAvg:    func(n int) kvTable[avgState] { return hashtbl.NewChained[avgState](n) },
		newList:   func(n int) kvTable[[]uint64] { return hashtbl.NewChained[[]uint64](n) },
		newAList:  func(n int) kvTable[arena.List] { return hashtbl.NewChained[arena.List](n) },
		newReduce: func(n int) kvTable[reduceState] { return hashtbl.NewChained[reduceState](n) },
	}
}

// HashSparse returns the sparse quadratic-probing engine ("Hash_Sparse").
func HashSparse() Engine {
	return &tableEngine{
		name:      "Hash_Sparse",
		cat:       HashBased,
		newCount:  func(n int) kvTable[uint64] { return hashtbl.NewSparse[uint64](n) },
		newAvg:    func(n int) kvTable[avgState] { return hashtbl.NewSparse[avgState](n) },
		newList:   func(n int) kvTable[[]uint64] { return hashtbl.NewSparse[[]uint64](n) },
		newAList:  func(n int) kvTable[arena.List] { return hashtbl.NewSparse[arena.List](n) },
		newReduce: func(n int) kvTable[reduceState] { return hashtbl.NewSparse[reduceState](n) },
	}
}

// HashDense returns the dense quadratic-probing engine ("Hash_Dense").
func HashDense() Engine {
	return &tableEngine{
		name:      "Hash_Dense",
		cat:       HashBased,
		newCount:  func(n int) kvTable[uint64] { return hashtbl.NewDense[uint64](n) },
		newAvg:    func(n int) kvTable[avgState] { return hashtbl.NewDense[avgState](n) },
		newList:   func(n int) kvTable[[]uint64] { return hashtbl.NewDense[[]uint64](n) },
		newAList:  func(n int) kvTable[arena.List] { return hashtbl.NewDense[arena.List](n) },
		newReduce: func(n int) kvTable[reduceState] { return hashtbl.NewDense[reduceState](n) },
	}
}

func (e *tableEngine) Name() string       { return e.name }
func (e *tableEngine) Category() Category { return e.cat }

// sizeHint follows the paper's methodology (Section 3.2): the group-by
// cardinality is unknown, so tables are sized to the dataset size. Trees
// ignore the hint.
func sizeHint(n int) int { return n }

func (e *tableEngine) VectorCount(keys []uint64) []GroupCount {
	return e.countQ1(keys, &phaseClock{})
}

func (e *tableEngine) countQ1(keys []uint64, c *phaseClock) []GroupCount {
	c.start(e.name)
	return e.count(keys, c)
}

func (e *tableEngine) count(keys []uint64, c *phaseClock) []GroupCount {
	t := buildCount(e.newCount(sizeHint(len(keys))), keys)
	c.built()
	out := emitCounts(t)
	c.iterated()
	return out
}

func (e *tableEngine) VectorAvg(keys, vals []uint64) []GroupFloat {
	return e.avg(keys, vals, nil)
}

func (e *tableEngine) avg(keys, vals []uint64, c *phaseClock) []GroupFloat {
	t := buildAvg(e.newAvg(sizeHint(len(keys))), keys, vals)
	c.built()
	out := emitAvg(t)
	c.iterated()
	return out
}

func (e *tableEngine) VectorMedian(keys, vals []uint64) []GroupFloat {
	return e.VectorHolistic(keys, vals, MedianFunc)
}

// ScalarMedian builds a key → count tree and walks it in order to the
// middle position(s). This is the paper's "prebuilt index" flavour of Q6:
// the tree costs O(n log n) to build but then answers the median (or any
// quantile) with one ordered walk. A hash table cannot enumerate keys in
// order (Section 5.7 excludes hash tables from Q6 for exactly this
// reason).
func (e *tableEngine) ScalarMedian(keys []uint64) (float64, error) {
	if e.cat != TreeBased {
		return 0, ErrUnsupported
	}
	if len(keys) == 0 {
		return 0, nil
	}
	t := buildCount(e.newCount(sizeHint(len(keys))), keys)
	n := uint64(len(keys))
	// 0-based middle ranks: (n-1)/2 and n/2 (equal when n is odd).
	r1, r2 := (n-1)/2, n/2
	var v1, v2 float64
	var seen uint64
	got := 0
	t.Iterate(func(k uint64, c *uint64) bool {
		end := seen + *c
		if r1 >= seen && r1 < end {
			v1 = float64(k)
			got++
		}
		if r2 >= seen && r2 < end {
			v2 = float64(k)
			got++
			return false
		}
		seen = end
		return true
	})
	if got < 2 {
		// Unreachable for non-empty input; defensive.
		return 0, nil
	}
	return (v1 + v2) / 2, nil
}

// VectorCountRange answers Q7 with the tree's native range search; hash
// tables have none (Section 5.6 evaluates Q7 on the tree-based
// algorithms).
func (e *tableEngine) VectorCountRange(keys []uint64, lo, hi uint64) ([]GroupCount, error) {
	if e.cat != TreeBased {
		return nil, ErrUnsupported
	}
	if lo > hi {
		return nil, nil
	}
	t := buildCount(e.newCount(sizeHint(len(keys))), keys).(rangeTable[uint64])
	var out []GroupCount
	t.Range(lo, hi, func(k uint64, v *uint64) bool {
		out = append(out, GroupCount{Key: k, Count: *v})
		return true
	})
	return out, nil
}
