package agg

import (
	"sync"

	"memagg/internal/hashtbl"
)

// parallelDo runs f(0)..f(p-1) concurrently and waits for all of them.
func parallelDo(p int, f func(w int)) {
	var wg sync.WaitGroup
	wg.Add(p)
	for w := 0; w < p; w++ {
		go func(w int) {
			defer wg.Done()
			f(w)
		}(w)
	}
	wg.Wait()
}

// platEngine is a PLAT-style partitioned parallel aggregation engine
// (after Ye, Ross and Vesdapunt, "Scalable aggregation on multicore
// processors", which the paper surveys in Section 7). It answers the key
// question the paper poses for parallel aggregation — shared structure vs
// independent work — with the *independent* design: each worker builds a
// private, lock-free linear-probing table over its input chunk, and a
// partition-parallel merge phase combines the local tables (worker w owns
// the keys whose hash falls in partition w, so the merge needs no locks
// either).
//
// Contrast with the shared-structure engines Hash_TBBSC and Hash_LC
// (Figure 11): PLAT trades synchronization for a p-fold scan of the local
// tables during the merge, so it wins at low group-by cardinality and
// loses ground as the per-worker tables grow.
//
// The paper notes these partitioned algorithms cannot support holistic
// aggregation "because they split the data into multiple hash tables";
// here the merge phase concatenates each group's buffered value lists, so
// holistic queries work — at the memory cost holistic functions always
// carry. Like the other hash engines it cannot answer ordered queries
// (Q6/Q7).
type platEngine struct {
	pool
	unordered
}

// HashPLAT returns the partitioned parallel engine ("Hash_PLAT") building
// with the given number of goroutines (<= 0 uses GOMAXPROCS).
func HashPLAT(threads int) Engine {
	return &platEngine{pool: pool{threads}}
}

func (e *platEngine) Name() string       { return "Hash_PLAT" }
func (e *platEngine) Category() Category { return HashBased }

// partitionOf assigns a key to a merge partition. It uses high hash bits,
// independent of the bits the local tables use for slots.
func partitionOf(key uint64, p int) int {
	return int((hashtbl.Mix(key) >> 56) % uint64(p))
}

// platRun is the generic two-phase PLAT schedule over Hash_LP tables of
// state V, marking the phases on c: p workers each fill a local table
// over their chunk of the rows with build (one of the table engine's
// kernels), then worker w merges every local table's keys of partition w
// into a fresh table with combine and emits it with emit. Every key lands
// in exactly one partition, so the emitted slices concatenate without
// duplicates. The tables stay concrete so the merge walk and its upserts
// inline.
func platRun[V, R any](
	e *platEngine,
	keys, vals []uint64,
	c *phaseClock,
	build func(t kvTable[V], keys, vals []uint64) kvTable[V],
	combine func(dst, src *V),
	emit func(t groupIter[V]) []R,
) []R {
	c.start(e.Name())
	p := e.workers()
	if p > len(keys) {
		p = 1
	}
	locals := make([]*hashtbl.LinearProbe[V], p)
	parallelDo(p, func(w int) {
		lo, hi := len(keys)*w/p, len(keys)*(w+1)/p
		locals[w] = hashtbl.NewLinearProbe[V](hi - lo)
		build(locals[w], keys[lo:hi], valSlice(vals, lo, hi))
	})
	c.built()
	hint := mergeHint(locals, p)
	parts := make(Result[R], p)
	parallelDo(p, func(w int) {
		merged := hashtbl.NewLinearProbe[V](hint)
		for _, lt := range locals {
			lt.Iterate(func(k uint64, v *V) bool {
				if partitionOf(k, p) == w {
					combine(merged.Upsert(k), v)
				}
				return true
			})
		}
		parts[w] = emit(merged)
	})
	// merge covers the partition-parallel fold of the p local tables
	// (including each partition's row emission); iterate is the final
	// concatenation.
	c.merged()
	out := parts.Merge()
	c.iterated()
	return out
}

// valSlice clamps vals to the chunk [lo, hi): the values column may be
// shorter than keys (missing values aggregate as zero via valueAt), so the
// local-chunk slice must not index past len(vals).
func valSlice(vals []uint64, lo, hi int) []uint64 {
	if lo >= len(vals) {
		return nil
	}
	if hi > len(vals) {
		hi = len(vals)
	}
	return vals[lo:hi]
}

// mergeHint sizes a merge partition's table: the largest local table bounds
// the distinct keys per partition once divided by p.
func mergeHint[V any](locals []*hashtbl.LinearProbe[V], p int) int {
	max := 0
	for _, lt := range locals {
		if lt.Len() > max {
			max = lt.Len()
		}
	}
	hint := max * 2 / p
	if hint < 64 {
		hint = 64
	}
	return hint
}

func (e *platEngine) VectorCount(keys []uint64) []GroupCount {
	return e.countQ1(keys, &phaseClock{})
}

func (e *platEngine) countQ1(keys []uint64, c *phaseClock) []GroupCount {
	return platRun(e, keys, nil, c,
		func(t kvTable[uint64], keys, _ []uint64) kvTable[uint64] { return buildCount(t, keys) },
		func(dst, src *uint64) { *dst += *src },
		emitCounts)
}

func (e *platEngine) VectorAvg(keys, vals []uint64) []GroupFloat {
	return platRun(e, keys, vals, &phaseClock{}, buildAvg,
		func(dst, src *avgState) {
			dst.sum += src.sum
			dst.count += src.count
		},
		emitAvg)
}

func (e *platEngine) VectorMedian(keys, vals []uint64) []GroupFloat {
	return e.VectorHolistic(keys, vals, MedianFunc)
}

// VectorHolistic concatenates each group's buffered value lists in the
// merge, then applies fn to the complete list.
func (e *platEngine) VectorHolistic(keys, vals []uint64, fn HolisticFunc) []GroupFloat {
	return platRun(e, keys, vals, &phaseClock{}, buildList,
		func(dst, src *[]uint64) { *dst = append(*dst, *src...) },
		func(t groupIter[[]uint64]) []GroupFloat { return emitHolistic(t, fn) })
}

func (e *platEngine) VectorReduce(keys, vals []uint64, op ReduceOp) []GroupUint {
	return platRun(e, keys, vals, &phaseClock{},
		func(t kvTable[reduceState], keys, vals []uint64) kvTable[reduceState] {
			return buildReduce(t, keys, vals, op)
		},
		func(dst, src *reduceState) { dst.combine(op, *src) },
		emitReduce)
}

// combine merges another group's partial fold into s — the distributive
// merge step that makes partitioned aggregation possible (Section 2).
func (s *reduceState) combine(op ReduceOp, o reduceState) {
	if !o.seen {
		return
	}
	if !s.seen {
		*s = o
		return
	}
	switch op {
	case OpCount, OpSum:
		s.val += o.val
	case OpMin:
		if o.val < s.val {
			s.val = o.val
		}
	case OpMax:
		if o.val > s.val {
			s.val = o.val
		}
	}
}
