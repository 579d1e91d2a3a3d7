package agg

import (
	"sync"

	"memagg/internal/hashtbl"
	"memagg/internal/obs"
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
	threads int
}

// HashPLAT returns the partitioned parallel engine ("Hash_PLAT") building
// with the given number of goroutines (<= 0 uses GOMAXPROCS).
func HashPLAT(threads int) Engine {
	return &platEngine{threads: threads}
}

func (e *platEngine) Name() string       { return "Hash_PLAT" }
func (e *platEngine) Category() Category { return HashBased }

func (e *platEngine) workers() int {
	w := e.threads
	if w <= 0 {
		w = defaultWorkers()
	}
	return w
}

// partitionOf assigns a key to a merge partition. It uses high hash bits,
// independent of the bits the local tables use for slots.
func partitionOf(key uint64, p int) int {
	return int((hashtbl.Mix(key) >> 56) % uint64(p))
}

// platRun is the generic two-phase PLAT schedule: build p local tables,
// then merge partition-parallel. buildLocal aggregates one chunk into a
// fresh local table; mergePart folds every local table's keys belonging to
// partition w into the output slice it returns.
func platRun[T any, R any](
	e *platEngine,
	keys []uint64,
	buildLocal func(lo, hi int) T,
	mergePart func(w int, locals []T) []R,
) []R {
	ph := phasesFor(e.Name())
	m := obs.Start()
	p := e.workers()
	if p > len(keys) {
		p = 1
	}
	locals := make([]T, p)
	parallelDo(p, func(w int) {
		lo, hi := len(keys)*w/p, len(keys)*(w+1)/p
		locals[w] = buildLocal(lo, hi)
	})
	m = m.Tick(ph.build)
	parts := make(Result[R], p)
	parallelDo(p, func(w int) {
		parts[w] = mergePart(w, locals)
	})
	// merge covers the partition-parallel fold of the p local tables
	// (including each partition's row emission, which mergePart fuses);
	// iterate is the final concatenation.
	m = m.Tick(ph.merge)
	out := parts.Merge()
	m.Tick(ph.iterate)
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

func (e *platEngine) VectorCount(keys []uint64) []GroupCount {
	p := e.workers()
	return platRun(e, keys,
		func(lo, hi int) *hashtbl.LinearProbe[uint64] {
			t := hashtbl.NewLinearProbe[uint64](hi - lo)
			lpBuildCount(t, keys[lo:hi])
			return t
		},
		func(w int, locals []*hashtbl.LinearProbe[uint64]) []GroupCount {
			merged := hashtbl.NewLinearProbe[uint64](mergeHint(locals, w, p))
			for _, lt := range locals {
				lt.Iterate(func(k uint64, v *uint64) bool {
					if partitionOf(k, p) == w {
						*merged.Upsert(k) += *v
					}
					return true
				})
			}
			out := make([]GroupCount, 0, merged.Len())
			merged.Iterate(func(k uint64, v *uint64) bool {
				out = append(out, GroupCount{Key: k, Count: *v})
				return true
			})
			return out
		})
}

// mergeHint sizes a merge partition's table: the largest local table bounds
// the distinct keys per partition once divided by p.
func mergeHint[V any](locals []*hashtbl.LinearProbe[V], _ int, p int) int {
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

func (e *platEngine) VectorAvg(keys, vals []uint64) []GroupFloat {
	p := e.workers()
	return platRun(e, keys,
		func(lo, hi int) *hashtbl.LinearProbe[avgState] {
			t := hashtbl.NewLinearProbe[avgState](hi - lo)
			lpBuildAvg(t, keys[lo:hi], valSlice(vals, lo, hi))
			return t
		},
		func(w int, locals []*hashtbl.LinearProbe[avgState]) []GroupFloat {
			merged := hashtbl.NewLinearProbe[avgState](mergeHint(locals, w, p))
			for _, lt := range locals {
				lt.Iterate(func(k uint64, st *avgState) bool {
					if partitionOf(k, p) == w {
						m := merged.Upsert(k)
						m.sum += st.sum
						m.count += st.count
					}
					return true
				})
			}
			out := make([]GroupFloat, 0, merged.Len())
			merged.Iterate(func(k uint64, st *avgState) bool {
				out = append(out, GroupFloat{Key: k, Value: st.avg()})
				return true
			})
			return out
		})
}

func (e *platEngine) VectorMedian(keys, vals []uint64) []GroupFloat {
	return e.VectorHolistic(keys, vals, MedianFunc)
}

func (e *platEngine) VectorHolistic(keys, vals []uint64, fn HolisticFunc) []GroupFloat {
	p := e.workers()
	return platRun(e, keys,
		func(lo, hi int) *hashtbl.LinearProbe[[]uint64] {
			t := hashtbl.NewLinearProbe[[]uint64](hi - lo)
			lpBuildList(t, keys[lo:hi], valSlice(vals, lo, hi))
			return t
		},
		func(w int, locals []*hashtbl.LinearProbe[[]uint64]) []GroupFloat {
			merged := hashtbl.NewLinearProbe[[]uint64](mergeHint(locals, w, p))
			for _, lt := range locals {
				lt.Iterate(func(k uint64, lst *[]uint64) bool {
					if partitionOf(k, p) == w {
						m := merged.Upsert(k)
						*m = append(*m, *lst...)
					}
					return true
				})
			}
			out := make([]GroupFloat, 0, merged.Len())
			merged.Iterate(func(k uint64, lst *[]uint64) bool {
				out = append(out, GroupFloat{Key: k, Value: fn(*lst)})
				return true
			})
			return out
		})
}

func (e *platEngine) VectorReduce(keys, vals []uint64, op ReduceOp) []GroupUint {
	p := e.workers()
	return platRun(e, keys,
		func(lo, hi int) *hashtbl.LinearProbe[reduceState] {
			t := hashtbl.NewLinearProbe[reduceState](hi - lo)
			lpBuildReduce(t, keys[lo:hi], valSlice(vals, lo, hi), op)
			return t
		},
		func(w int, locals []*hashtbl.LinearProbe[reduceState]) []GroupUint {
			merged := hashtbl.NewLinearProbe[reduceState](mergeHint(locals, w, p))
			for _, lt := range locals {
				lt.Iterate(func(k uint64, st *reduceState) bool {
					if partitionOf(k, p) == w {
						merged.Upsert(k).combine(op, *st)
					}
					return true
				})
			}
			out := make([]GroupUint, 0, merged.Len())
			merged.Iterate(func(k uint64, st *reduceState) bool {
				out = append(out, GroupUint{Key: k, Value: st.val})
				return true
			})
			return out
		})
}

func (e *platEngine) ScalarMedian([]uint64) (float64, error) {
	return 0, ErrUnsupported
}

func (e *platEngine) VectorCountRange([]uint64, uint64, uint64) ([]GroupCount, error) {
	return nil, ErrUnsupported
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
