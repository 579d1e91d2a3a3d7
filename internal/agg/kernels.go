package agg

import (
	"memagg/internal/arena"
	"memagg/internal/hashtbl"
)

// Monomorphized build kernels.
//
// The original build loops paid two per-row dispatches: every Upsert went
// through the kvTable interface (one indirect call per record), and the
// generalized reduce additionally re-ran the ReduceOp switch on every row.
// The kernels below hoist both out of the row loop:
//
//   - each build shape gets one kernel per aggregate function class
//     (count / sum / min / max / avg / holistic), so the selected loop body
//     is branch-free — the op dispatch happens once per query, not once per
//     row;
//   - the kernels type-switch once to the concrete *hashtbl.LinearProbe
//     table (the reference serial engine and the workhorse inside Hash_RX
//     and Hash_PLAT) and run a devirtualized loop over it. Other backends
//     fall back to the interface loop — for the trees, node traversal
//     dominates and the dispatch is noise.
//
// The LinearProbe loops additionally batch hash computation (the "and
// batch hash computation" half of the optimization): rows are processed in
// blocks of hashBatch, first filling a small buffer of Mix() hashes, then
// probing. The hash multiplies of the whole block overlap each other and
// the probes' dependent cache misses instead of serializing row by row.

// hashBatch is the rows-per-block of the batched-hash loops; the constant
// and the block-mix helper live in hashtbl (HashBatch/MixBatch) so the
// streaming hot loops and the concurrent table batch identically.
const hashBatch = hashtbl.HashBatch

// mixBatch fills h with the hashes of the keys in b (len(b) == hashBatch).
func mixBatch(h *[hashBatch]uint64, b []uint64) {
	hashtbl.MixBatch(h, b)
}

// --- COUNT ---------------------------------------------------------------------

func buildCount(t kvTable[uint64], keys []uint64) {
	if lp, ok := t.(*hashtbl.LinearProbe[uint64]); ok {
		lpBuildCount(lp, keys)
		return
	}
	for _, k := range keys {
		*t.Upsert(k)++
	}
}

func lpBuildCount(t *hashtbl.LinearProbe[uint64], keys []uint64) {
	var h [hashBatch]uint64
	i := 0
	for ; i+hashBatch <= len(keys); i += hashBatch {
		b := keys[i : i+hashBatch : i+hashBatch]
		mixBatch(&h, b)
		for j, k := range b {
			*t.UpsertH(k, h[j])++
		}
	}
	for _, k := range keys[i:] {
		*t.Upsert(k)++
	}
}

// --- AVG (algebraic: sum + count) ----------------------------------------------

func buildAvg(t kvTable[avgState], keys, vals []uint64) {
	if lp, ok := t.(*hashtbl.LinearProbe[avgState]); ok {
		lpBuildAvg(lp, keys, vals)
		return
	}
	for i, k := range keys {
		st := t.Upsert(k)
		st.sum += valueAt(vals, i)
		st.count++
	}
}

func lpBuildAvg(t *hashtbl.LinearProbe[avgState], keys, vals []uint64) {
	var h [hashBatch]uint64
	i := 0
	// Full blocks with a value for every row take the branch-free loop.
	for ; i+hashBatch <= len(vals) && i+hashBatch <= len(keys); i += hashBatch {
		b := keys[i : i+hashBatch : i+hashBatch]
		v := vals[i : i+hashBatch : i+hashBatch]
		mixBatch(&h, b)
		for j, k := range b {
			st := t.UpsertH(k, h[j])
			st.sum += v[j]
			st.count++
		}
	}
	for ; i < len(keys); i++ {
		st := t.Upsert(keys[i])
		st.sum += valueAt(vals, i)
		st.count++
	}
}

// --- holistic value buffering ---------------------------------------------------

// buildList is the go-runtime holistic build: per-group []uint64 grown by
// append.
func buildList(t kvTable[[]uint64], keys, vals []uint64) {
	if lp, ok := t.(*hashtbl.LinearProbe[[]uint64]); ok {
		lpBuildList(lp, keys, vals)
		return
	}
	for i, k := range keys {
		lst := t.Upsert(k)
		*lst = append(*lst, valueAt(vals, i))
	}
}

func lpBuildList(t *hashtbl.LinearProbe[[]uint64], keys, vals []uint64) {
	var h [hashBatch]uint64
	i := 0
	for ; i+hashBatch <= len(vals) && i+hashBatch <= len(keys); i += hashBatch {
		b := keys[i : i+hashBatch : i+hashBatch]
		v := vals[i : i+hashBatch : i+hashBatch]
		mixBatch(&h, b)
		for j, k := range b {
			lst := t.UpsertH(k, h[j])
			*lst = append(*lst, v[j])
		}
	}
	for ; i < len(keys); i++ {
		lst := t.Upsert(keys[i])
		*lst = append(*lst, valueAt(vals, i))
	}
}

// buildArenaList is the arena holistic build: per-group chunked lists bump-
// allocated from ar (see internal/arena).
func buildArenaList(t kvTable[arena.List], ar *arena.Arena, keys, vals []uint64) {
	if lp, ok := t.(*hashtbl.LinearProbe[arena.List]); ok {
		lpBuildArenaList(lp, ar, keys, vals)
		return
	}
	for i, k := range keys {
		ar.Append(t.Upsert(k), valueAt(vals, i))
	}
}

func lpBuildArenaList(t *hashtbl.LinearProbe[arena.List], ar *arena.Arena, keys, vals []uint64) {
	var h [hashBatch]uint64
	i := 0
	for ; i+hashBatch <= len(vals) && i+hashBatch <= len(keys); i += hashBatch {
		b := keys[i : i+hashBatch : i+hashBatch]
		v := vals[i : i+hashBatch : i+hashBatch]
		mixBatch(&h, b)
		for j, k := range b {
			ar.Append(t.UpsertH(k, h[j]), v[j])
		}
	}
	for ; i < len(keys); i++ {
		ar.Append(t.Upsert(keys[i]), valueAt(vals, i))
	}
}

// --- generalized distributive folds --------------------------------------------

// buildReduce dispatches the ReduceOp once and runs the matching
// specialized loop; reduceState.fold (a per-row switch) stays only as the
// reference the kernels are tested against.
func buildReduce(t kvTable[reduceState], keys, vals []uint64, op ReduceOp) {
	if lp, ok := t.(*hashtbl.LinearProbe[reduceState]); ok {
		lpBuildReduce(lp, keys, vals, op)
		return
	}
	switch op {
	case OpCount:
		for _, k := range keys {
			st := t.Upsert(k)
			st.val++
			st.seen = true
		}
	case OpSum:
		for i, k := range keys {
			st := t.Upsert(k)
			st.val += valueAt(vals, i)
			st.seen = true
		}
	case OpMin:
		for i, k := range keys {
			st := t.Upsert(k)
			if v := valueAt(vals, i); !st.seen || v < st.val {
				st.val = v
			}
			st.seen = true
		}
	case OpMax:
		for i, k := range keys {
			st := t.Upsert(k)
			if v := valueAt(vals, i); !st.seen || v > st.val {
				st.val = v
			}
			st.seen = true
		}
	}
}

func lpBuildReduce(t *hashtbl.LinearProbe[reduceState], keys, vals []uint64, op ReduceOp) {
	var h [hashBatch]uint64
	i := 0
	for ; i+hashBatch <= len(vals) && i+hashBatch <= len(keys); i += hashBatch {
		b := keys[i : i+hashBatch : i+hashBatch]
		v := vals[i : i+hashBatch : i+hashBatch]
		mixBatch(&h, b)
		switch op {
		case OpCount:
			for j, k := range b {
				st := t.UpsertH(k, h[j])
				st.val++
				st.seen = true
			}
		case OpSum:
			for j, k := range b {
				st := t.UpsertH(k, h[j])
				st.val += v[j]
				st.seen = true
			}
		case OpMin:
			for j, k := range b {
				st := t.UpsertH(k, h[j])
				if !st.seen || v[j] < st.val {
					st.val = v[j]
				}
				st.seen = true
			}
		case OpMax:
			for j, k := range b {
				st := t.UpsertH(k, h[j])
				if !st.seen || v[j] > st.val {
					st.val = v[j]
				}
				st.seen = true
			}
		}
	}
	for ; i < len(keys); i++ {
		t.Upsert(keys[i]).fold(op, valueAt(vals, i))
	}
}

// --- shared iterate helpers ----------------------------------------------------

// emitHolistic reads a go-runtime list table out: one fn() per group over
// its buffered values.
func emitHolistic(t kvTable[[]uint64], fn HolisticFunc) []GroupFloat {
	out := make([]GroupFloat, 0, t.Len())
	t.Iterate(func(k uint64, lst *[]uint64) bool {
		out = append(out, GroupFloat{Key: k, Value: fn(*lst)})
		return true
	})
	return out
}

// emitHolisticArena reads an arena list table out, collecting each group
// into a reusable contiguous scratch (holistic functions select in place).
func emitHolisticArena(t kvTable[arena.List], ar *arena.Arena, fn HolisticFunc) []GroupFloat {
	out := make([]GroupFloat, 0, t.Len())
	var scratch []uint64
	t.Iterate(func(k uint64, lst *arena.List) bool {
		scratch = ar.AppendTo(scratch[:0], *lst)
		out = append(out, GroupFloat{Key: k, Value: fn(scratch)})
		return true
	})
	return out
}
