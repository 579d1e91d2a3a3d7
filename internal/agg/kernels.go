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
//     table (the reference serial engine and the workhorse inside Hash_RX,
//     Hash_PLAT and Hash_GLB's serial fallback) and run a devirtualized
//     loop over it. Other backends
//     fall back to the interface loop — for the trees, node traversal
//     dominates and the dispatch is noise.
//
// Each kernel returns the table it filled, so a build reads as one
// expression over a fresh table: buildCount(e.newCount(n), keys).
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

func buildCount(t kvTable[uint64], keys []uint64) kvTable[uint64] {
	if lp, ok := t.(*hashtbl.LinearProbe[uint64]); ok {
		lpBuildCount(lp, keys)
		return t
	}
	for _, k := range keys {
		*t.Upsert(k)++
	}
	return t
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

func buildAvg(t kvTable[avgState], keys, vals []uint64) kvTable[avgState] {
	if lp, ok := t.(*hashtbl.LinearProbe[avgState]); ok {
		lpBuildAvg(lp, keys, vals)
		return t
	}
	for i, k := range keys {
		st := t.Upsert(k)
		st.sum += valueAt(vals, i)
		st.count++
	}
	return t
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
func buildList(t kvTable[[]uint64], keys, vals []uint64) kvTable[[]uint64] {
	if lp, ok := t.(*hashtbl.LinearProbe[[]uint64]); ok {
		lpBuildList(lp, keys, vals)
		return t
	}
	for i, k := range keys {
		lst := t.Upsert(k)
		*lst = append(*lst, valueAt(vals, i))
	}
	return t
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
func buildArenaList(t kvTable[arena.List], ar *arena.Arena, keys, vals []uint64) kvTable[arena.List] {
	if lp, ok := t.(*hashtbl.LinearProbe[arena.List]); ok {
		lpBuildArenaList(lp, ar, keys, vals)
		return t
	}
	for i, k := range keys {
		ar.Append(t.Upsert(k), valueAt(vals, i))
	}
	return t
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
func buildReduce(t kvTable[reduceState], keys, vals []uint64, op ReduceOp) kvTable[reduceState] {
	if lp, ok := t.(*hashtbl.LinearProbe[reduceState]); ok {
		lpBuildReduce(lp, keys, vals, op)
		return t
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
	return t
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

// --- emit helpers ----------------------------------------------------------------

// The iterate phase, one helper per aggregate state: each reads any table
// that can list its groups (groupIter) into a result presized to them,
// whether the table is a serial engine's, a Hash_RX partition's, Hash_PLAT's
// merged partition or a concurrent engine's shared map. Only Hash_GLB's lane
// tables, read by slot index, emit on their own.
//
// Like the build kernels, each helper type-switches once to the concrete
// *hashtbl.LinearProbe: its Iterate then inlines together with the
// per-group callback, where through the interface every group costs an
// indirect call (about 0.8 ms more over 262,144 groups).

// emitCounts reads a count table out.
func emitCounts(t groupIter[uint64]) []GroupCount {
	out := make([]GroupCount, 0, t.Len())
	add := func(k uint64, v *uint64) bool {
		out = append(out, GroupCount{Key: k, Count: *v})
		return true
	}
	if lp, ok := t.(*hashtbl.LinearProbe[uint64]); ok {
		lp.Iterate(add)
	} else {
		t.Iterate(add)
	}
	return out
}

// emitAvg reads an avg table out, dividing each group's sum by its count.
func emitAvg(t groupIter[avgState]) []GroupFloat {
	out := make([]GroupFloat, 0, t.Len())
	add := func(k uint64, st *avgState) bool {
		out = append(out, GroupFloat{Key: k, Value: st.avg()})
		return true
	}
	if lp, ok := t.(*hashtbl.LinearProbe[avgState]); ok {
		lp.Iterate(add)
	} else {
		t.Iterate(add)
	}
	return out
}

// emitReduce reads a distributive-fold table out.
func emitReduce(t groupIter[reduceState]) []GroupUint {
	out := make([]GroupUint, 0, t.Len())
	add := func(k uint64, st *reduceState) bool {
		out = append(out, GroupUint{Key: k, Value: st.val})
		return true
	}
	if lp, ok := t.(*hashtbl.LinearProbe[reduceState]); ok {
		lp.Iterate(add)
	} else {
		t.Iterate(add)
	}
	return out
}

// emitHolistic reads a go-runtime list table out: one fn() per group over
// its buffered values.
func emitHolistic(t groupIter[[]uint64], fn HolisticFunc) []GroupFloat {
	out := make([]GroupFloat, 0, t.Len())
	add := func(k uint64, lst *[]uint64) bool {
		out = append(out, GroupFloat{Key: k, Value: fn(*lst)})
		return true
	}
	if lp, ok := t.(*hashtbl.LinearProbe[[]uint64]); ok {
		lp.Iterate(add)
	} else {
		t.Iterate(add)
	}
	return out
}

// emitHolisticArena reads an arena list table out, collecting each group
// into a reusable contiguous scratch (holistic functions select in place).
func emitHolisticArena(t groupIter[arena.List], ar *arena.Arena, fn HolisticFunc) []GroupFloat {
	out := make([]GroupFloat, 0, t.Len())
	var scratch []uint64
	add := func(k uint64, lst *arena.List) bool {
		scratch = ar.AppendTo(scratch[:0], *lst)
		out = append(out, GroupFloat{Key: k, Value: fn(scratch)})
		return true
	}
	if lp, ok := t.(*hashtbl.LinearProbe[arena.List]); ok {
		lp.Iterate(add)
	} else {
		t.Iterate(add)
	}
	return out
}
