package agg

import (
	"memagg/internal/chash"
	"memagg/internal/cuckoo"
)

// This file generalizes the query set beyond Table 1's examples: any
// distributive fold (SUM, MIN, MAX — and COUNT as a degenerate fold) and
// any holistic function over a group's value multiset (QUANTILE, MODE, or
// user-supplied). The build/iterate structure is identical to
// VectorCount/VectorMedian: distributive folds aggregate early during the
// build; holistic functions buffer values and aggregate during iterate.

// ReduceOp selects the distributive fold applied by VectorReduce.
type ReduceOp int

const (
	// OpCount counts records per group (values ignored).
	OpCount ReduceOp = iota
	// OpSum sums values per group.
	OpSum
	// OpMin keeps the minimum value per group.
	OpMin
	// OpMax keeps the maximum value per group.
	OpMax
)

// String returns the SQL-ish name of the fold.
func (op ReduceOp) String() string {
	switch op {
	case OpCount:
		return "COUNT"
	case OpSum:
		return "SUM"
	case OpMin:
		return "MIN"
	case OpMax:
		return "MAX"
	default:
		return "ReduceOp(?)"
	}
}

// GroupUint is one row of a generalized distributive vector result.
type GroupUint struct {
	Key   uint64
	Value uint64
}

// HolisticFunc aggregates one group's complete value multiset. The slice
// may be reordered by the function (Median and Quantile select in place)
// but must not be retained.
type HolisticFunc func(values []uint64) float64

// reduceState folds values for one group. The paper's early-aggregation
// rule: the state is updated in place on every record of the group.
type reduceState struct {
	val  uint64
	seen bool
}

func (s *reduceState) fold(op ReduceOp, v uint64) {
	switch op {
	case OpCount:
		s.val++
	case OpSum:
		s.val += v
	case OpMin:
		if !s.seen || v < s.val {
			s.val = v
		}
	case OpMax:
		if !s.seen || v > s.val {
			s.val = v
		}
	}
	s.seen = true
}

// valueAt treats a short values column as zero-extended, matching the
// other operators.
func valueAt(vals []uint64, i int) uint64 {
	if i < len(vals) {
		return vals[i]
	}
	return 0
}

// --- sort engine ---------------------------------------------------------------

func (e *sortEngine) VectorReduce(keys, vals []uint64, op ReduceOp) []GroupUint {
	if len(keys) == 0 {
		return nil
	}
	buf := e.copyKV(keys, vals)
	e.sortKV(buf)
	var out []GroupUint
	var st reduceState
	cur := buf[0].K
	for _, r := range buf {
		if r.K != cur {
			out = append(out, GroupUint{Key: cur, Value: st.val})
			cur, st = r.K, reduceState{}
		}
		st.fold(op, r.V)
	}
	out = append(out, GroupUint{Key: cur, Value: st.val})
	e.releaseKV(buf)
	return out
}

func (e *sortEngine) VectorHolistic(keys, vals []uint64, fn HolisticFunc) []GroupFloat {
	if len(keys) == 0 {
		return nil
	}
	buf := e.copyKV(keys, vals)
	e.sortKV(buf)
	var out []GroupFloat
	scratch := make([]uint64, 0, 64)
	start := 0
	for i := 1; i <= len(buf); i++ {
		if i == len(buf) || buf[i].K != buf[start].K {
			scratch = scratch[:0]
			for _, r := range buf[start:i] {
				scratch = append(scratch, r.V)
			}
			out = append(out, GroupFloat{Key: buf[start].K, Value: fn(scratch)})
			start = i
		}
	}
	e.releaseKV(buf)
	return out
}

// --- table engine --------------------------------------------------------------

// VectorReduce folds with the per-op kernels of kernels.go: the ReduceOp
// dispatch happens once per query, not once per row.
func (e *tableEngine) VectorReduce(keys, vals []uint64, op ReduceOp) []GroupUint {
	return e.reduce(keys, vals, op, nil)
}

func (e *tableEngine) reduce(keys, vals []uint64, op ReduceOp, c *phaseClock) []GroupUint {
	t := buildReduce(e.newReduce(sizeHint(len(keys))), keys, vals, op)
	c.built()
	out := emitReduce(t)
	c.iterated()
	return out
}

func (e *tableEngine) VectorHolistic(keys, vals []uint64, fn HolisticFunc) []GroupFloat {
	return e.holistic(keys, vals, fn, nil)
}

func (e *tableEngine) holistic(keys, vals []uint64, fn HolisticFunc, c *phaseClock) []GroupFloat {
	var out []GroupFloat
	if e.alloc == AllocArena {
		ar := arenas.Get()
		defer arenas.Put(ar)
		t := buildArenaList(e.newAList(sizeHint(len(keys))), ar, keys, vals)
		c.built()
		out = emitHolisticArena(t, ar, fn)
	} else {
		t := buildList(e.newList(sizeHint(len(keys))), keys, vals)
		c.built()
		out = emitHolistic(t, fn)
	}
	c.iterated()
	return out
}

// --- concurrent engines ----------------------------------------------------------

func (e *cuckooEngine) VectorReduce(keys, vals []uint64, op ReduceOp) []GroupUint {
	m := cuckoo.New[reduceState](sizeHint(len(keys)))
	parallelChunks(len(keys), e.workers(), e.forcePar(), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			v := valueAt(vals, i)
			m.Upsert(keys[i], func(st *reduceState, _ bool) { st.fold(op, v) })
		}
	})
	return emitReduce(m)
}

func (e *cuckooEngine) VectorHolistic(keys, vals []uint64, fn HolisticFunc) []GroupFloat {
	m := cuckoo.New[[]uint64](sizeHint(len(keys)))
	parallelChunks(len(keys), e.workers(), e.forcePar(), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			v := valueAt(vals, i)
			m.Upsert(keys[i], func(lst *[]uint64, _ bool) { *lst = append(*lst, v) })
		}
	})
	return emitHolistic(m, fn)
}

func (e *tbbEngine) VectorReduce(keys, vals []uint64, op ReduceOp) []GroupUint {
	m := chash.New[reduceState](sizeHint(len(keys)), 0)
	parallelChunks(len(keys), e.workers(), e.forcePar(), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			v := valueAt(vals, i)
			m.Upsert(keys[i], func(st *reduceState) { st.fold(op, v) })
		}
	})
	return emitReduce(m)
}

func (e *tbbEngine) VectorHolistic(keys, vals []uint64, fn HolisticFunc) []GroupFloat {
	m := chash.New[[]uint64](sizeHint(len(keys)), 0)
	parallelChunks(len(keys), e.workers(), e.forcePar(), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			v := valueAt(vals, i)
			m.Upsert(keys[i], func(lst *[]uint64) { *lst = append(*lst, v) })
		}
	})
	return emitHolistic(m, fn)
}

// --- scalar generalizations -------------------------------------------------------

// ScalarSum, ScalarMin, ScalarMax, ScalarMode and ScalarQuantile extend the
// Q4/Q5 scalar family with the remaining kernel functions. They need no
// grouping structure.

// ScalarSum returns SUM over a column.
func ScalarSum(vals []uint64) uint64 { return Sum(vals) }

// ScalarMin returns MIN over a column; ok is false for empty input.
func ScalarMin(vals []uint64) (uint64, bool) { return Min(vals) }

// ScalarMax returns MAX over a column; ok is false for empty input.
func ScalarMax(vals []uint64) (uint64, bool) { return Max(vals) }

// ScalarMode returns the most frequent value (holistic). It copies the
// input (Mode reorders its argument).
func ScalarMode(vals []uint64) (uint64, int, bool) {
	return Mode(append([]uint64(nil), vals...))
}

// ScalarQuantile returns the q-quantile by nearest rank (holistic). It
// copies the input.
func ScalarQuantile(vals []uint64, q float64) uint64 {
	return Quantile(append([]uint64(nil), vals...), q)
}

// QuantileFunc adapts Quantile to a HolisticFunc.
func QuantileFunc(q float64) HolisticFunc {
	return func(values []uint64) float64 { return float64(Quantile(values, q)) }
}

// ModeFunc is the HolisticFunc computing each group's mode.
func ModeFunc(values []uint64) float64 {
	v, _, ok := Mode(values)
	if !ok {
		return 0
	}
	return float64(v)
}

// MedianFunc is the HolisticFunc computing each group's median; it matches
// VectorMedian exactly.
func MedianFunc(values []uint64) float64 { return Median(values) }
