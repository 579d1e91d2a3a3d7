package agg

import (
	"memagg/internal/arena"
	"memagg/internal/art"
	"memagg/internal/btree"
	"memagg/internal/judy"
	"memagg/internal/ttree"
)

// rangeTable extends kvTable with the ordered-scan operations trees
// provide. Iterate is guaranteed to visit keys in ascending order.
type rangeTable[V any] interface {
	kvTable[V]
	Range(lo, hi uint64, fn func(key uint64, val *V) bool)
}

// treeEngine implements Engine over any ordered tree. Identical build to
// hashEngine (Upsert with early aggregation), but ordered iteration makes
// the scalar-median and range queries natively answerable.
type treeEngine struct {
	name      string
	alloc     Allocator
	newCount  func() rangeTable[uint64]
	newAvg    func() rangeTable[avgState]
	newList   func() rangeTable[[]uint64]
	newAList  func() rangeTable[arena.List]
	newReduce func() rangeTable[reduceState]
}

// ART returns the adaptive-radix-tree engine ("ART").
func ART() Engine {
	return &treeEngine{
		name:      "ART",
		newCount:  func() rangeTable[uint64] { return art.New[uint64]() },
		newAvg:    func() rangeTable[avgState] { return art.New[avgState]() },
		newList:   func() rangeTable[[]uint64] { return art.New[[]uint64]() },
		newAList:  func() rangeTable[arena.List] { return art.New[arena.List]() },
		newReduce: func() rangeTable[reduceState] { return art.New[reduceState]() },
	}
}

// Judy returns the Judy-array engine ("Judy").
func Judy() Engine {
	return &treeEngine{
		name:      "Judy",
		newCount:  func() rangeTable[uint64] { return judy.New[uint64]() },
		newAvg:    func() rangeTable[avgState] { return judy.New[avgState]() },
		newList:   func() rangeTable[[]uint64] { return judy.New[[]uint64]() },
		newAList:  func() rangeTable[arena.List] { return judy.New[arena.List]() },
		newReduce: func() rangeTable[reduceState] { return judy.New[reduceState]() },
	}
}

// Btree returns the B+tree engine ("Btree").
func Btree() Engine {
	return &treeEngine{
		name:      "Btree",
		newCount:  func() rangeTable[uint64] { return btree.New[uint64]() },
		newAvg:    func() rangeTable[avgState] { return btree.New[avgState]() },
		newList:   func() rangeTable[[]uint64] { return btree.New[[]uint64]() },
		newAList:  func() rangeTable[arena.List] { return btree.New[arena.List]() },
		newReduce: func() rangeTable[reduceState] { return btree.New[reduceState]() },
	}
}

// Ttree returns the T-tree engine ("Ttree"). The paper's microbenchmark
// rules it out of the main experiments; it is provided so that result can
// be reproduced (Figure 3).
func Ttree() Engine {
	return &treeEngine{
		name:      "Ttree",
		newCount:  func() rangeTable[uint64] { return ttree.New[uint64]() },
		newAvg:    func() rangeTable[avgState] { return ttree.New[avgState]() },
		newList:   func() rangeTable[[]uint64] { return ttree.New[[]uint64]() },
		newAList:  func() rangeTable[arena.List] { return ttree.New[arena.List]() },
		newReduce: func() rangeTable[reduceState] { return ttree.New[reduceState]() },
	}
}

func (e *treeEngine) Name() string       { return e.name }
func (e *treeEngine) Category() Category { return TreeBased }

func (e *treeEngine) VectorCount(keys []uint64) []GroupCount {
	return e.countQ1(keys, &phaseClock{})
}

func (e *treeEngine) countQ1(keys []uint64, c *phaseClock) []GroupCount {
	c.start(e.name)
	t := e.newCount()
	buildCount(t, keys)
	c.built()
	out := emitCounts(t)
	c.iterated()
	return out
}

func (e *treeEngine) VectorAvg(keys, vals []uint64) []GroupFloat {
	t := e.newAvg()
	buildAvg(t, keys, vals)
	out := make([]GroupFloat, 0, t.Len())
	t.Iterate(func(k uint64, st *avgState) bool {
		out = append(out, GroupFloat{Key: k, Value: st.avg()})
		return true
	})
	return out
}

func (e *treeEngine) VectorMedian(keys, vals []uint64) []GroupFloat {
	return e.VectorHolistic(keys, vals, MedianFunc)
}

// ScalarMedian builds a key → count tree and walks it in order to the
// middle position(s). This is the paper's "prebuilt index" flavour of Q6:
// the tree costs O(n log n) to build but then answers the median (or any
// quantile) with one ordered walk.
func (e *treeEngine) ScalarMedian(keys []uint64) (float64, error) {
	if len(keys) == 0 {
		return 0, nil
	}
	t := e.newCount()
	buildCount(t, keys)
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

func (e *treeEngine) VectorCountRange(keys []uint64, lo, hi uint64) ([]GroupCount, error) {
	if lo > hi {
		return nil, nil
	}
	t := e.newCount()
	buildCount(t, keys)
	var out []GroupCount
	t.Range(lo, hi, func(k uint64, v *uint64) bool {
		out = append(out, GroupCount{Key: k, Count: *v})
		return true
	})
	return out, nil
}
