package agg

import (
	"sync/atomic"

	"memagg/internal/arena"
	"memagg/internal/hashtbl"
	"memagg/internal/morsel"
)

// globalEngine is the morsel-driven global shared-table parallel
// aggregation engine ("Hash_GLB"): every worker aggregates directly into
// ONE concurrent linear-probing table (hashtbl.Concurrent), with the input
// dispatched as morsels from a single atomic cursor (internal/morsel).
//
// It occupies the design point "Global Hash Tables Strike Back!" (arxiv
// 2505.04153) argues for against radix partitioning: no partitioning pass,
// no per-worker tables, no merge — the table is built exactly once, and
// synchronization is pushed down to the cheapest primitive each aggregate
// admits (a CAS per new group, an atomic add or CAS-fold per row).
//
// Against the repo's other parallel engines:
//
//   - vs Hash_RX (radix): Hash_RX pays a full extra pass over the input
//     (the scatter) to make phase 2 contention- and merge-free. Hash_GLB
//     skips that pass entirely. When the group set is small enough that the
//     shared table stays cache-resident, atomic adds to it are cheap and
//     the saved pass wins; as cardinality grows, every worker's probes miss
//     cache in a table none of them owns and the scatter's locality pays
//     for itself — the crossover `aggbench -exp glb` measures (see
//     EXPERIMENTS.md and Recommend).
//   - vs Hash_TBBSC (bucket-locked chained table): Hash_GLB takes no lock
//     on the distributive row path at all, and its open-addressed probes
//     touch one cache line where the chained table chases node pointers.
//   - vs Hash_PLAT (private tables): no p-way table replication and no
//     re-scan merge, at the price of shared-line traffic on hot groups.
//
// Morsel dispatch (Leis et al., SIGMOD 2014) rather than static chunking
// keeps the assignment dynamic — a worker stalled on a heavy-hitter run
// just claims fewer morsels — and gives the table its growth points: each
// morsel is bracketed BeginBatch/EndBatch, so the table can quiesce and
// double between morsels but never during one (concurrent.go documents the
// slack accounting that makes this safe).
//
// Distributive aggregates map onto per-slot uint64 lanes:
//
//	COUNT  1 lane, atomic add 1
//	SUM    1 lane, atomic add v
//	AVG    2 lanes (sum, count), two atomic adds; exact float64 division
//	        at emit — identical to avgState.avg()
//	MIN    1 lane seeded ^0, CAS-fold downward
//	MAX    1 lane seeded 0,  CAS-fold upward
//
// The MIN/MAX lattice identities make the fold exact under any
// claim/update interleaving: a freshly claimed slot already holds the
// fold's identity, so there is no "first value" publication to order.
//
// Holistic queries (Q3/MEDIAN, QUANTILE, MODE) need per-group value lists
// — a non-commutative append the lock-free lanes cannot express. Hash_GLB
// buffers instead: during the single parallel pass each worker claims keys
// in the shared table (establishing the slot space) and copies its rows
// into a private buffer; after the join the buffers are replayed once into
// per-slot lists via read-only GetSlot probes, serialized per-slot by the
// table's striped locks (or serially into a pooled arena under
// AllocArena, which a single-owner arena requires). Holistic functions are
// order-insensitive over the group multiset (Median/Quantile select,
// Mode sorts first), so the nondeterministic replay order is exact.
type globalEngine struct {
	pool
	unordered
	// lp is the serial fallback's engine, Hash_LP; it carries the
	// allocator, which the parallel holistic path reads too.
	lp tableEngine
}

// HashGLB returns the morsel-driven global shared-table engine
// ("Hash_GLB") building with the given number of goroutines (<= 0 uses
// GOMAXPROCS).
func HashGLB(threads int) Engine {
	return &globalEngine{pool: pool{threads}, lp: *hashLP()}
}

func (e *globalEngine) Name() string       { return "Hash_GLB" }
func (e *globalEngine) Category() Category { return HashBased }

const (
	// glbSerialCutoff is the input size below which goroutine fan-out and
	// atomic traffic cannot recoup themselves and a single serial
	// LinearProbe build runs instead (same threshold as rxSerialCutoff, so
	// the engines' parallel regimes coincide in sweeps).
	glbSerialCutoff = 1 << 15

	// glbMorselRows is the morsel size: DefaultRows follows the
	// morsel-driven literature's few-thousand-tuples guidance and sets the
	// table's growth slack (workers × morsel rows, see NewConcurrent).
	glbMorselRows = morsel.DefaultRows
)

// glbTable pre-sizes the shared table from a prefix-sample cardinality
// estimate — the EstimatedGroups discipline — so concurrent growth is the
// exception: a correct estimate means the build never takes the write lock.
func glbTable(keys []uint64, lanes int, laneInit []uint64, workers int) *hashtbl.Concurrent {
	return hashtbl.NewConcurrent(estimateGroups(keys), lanes, laneInit, workers*glbMorselRows)
}

// glbLaneDrive is the shared morsel loop of the distributive kernels: it
// drives workers over the input, brackets each morsel as one table batch,
// and hands hashBatch-blocks of (key, hash) pairs to the per-op row body.
// vals is clamped per block exactly like the serial kernels (a short
// values column zero-extends via valueAt in the tail).
func glbLaneDrive(t *hashtbl.Concurrent, keys, vals []uint64, workers int,
	block func(lanes []uint64, b, v []uint64, h *[hashBatch]uint64),
	row func(lanes []uint64, slot int, v uint64)) {
	morsel.Drive(len(keys), workers, glbMorselRows, func(_, lo, hi int) {
		lanes := t.BeginBatch()
		var h [hashBatch]uint64
		i := lo
		for ; i+hashBatch <= hi && i+hashBatch <= len(vals); i += hashBatch {
			b := keys[i : i+hashBatch : i+hashBatch]
			v := vals[i : i+hashBatch : i+hashBatch]
			mixBatch(&h, b)
			block(lanes, b, v, &h)
		}
		for ; i < hi; i++ {
			k := keys[i]
			row(lanes, t.UpsertSlotH(k, hashtbl.Mix(k)), valueAt(vals, i))
		}
		t.EndBatch()
	})
}

// The per-op kernels. Each is monomorphic — the op dispatch happens once
// per query in glbReduce/VectorCount, never in the row loop — and each
// lane update is a single wait-free atomic.

func glbBuildCount(t *hashtbl.Concurrent, keys []uint64, workers int) {
	morsel.Drive(len(keys), workers, glbMorselRows, func(_, lo, hi int) {
		lanes := t.BeginBatch()
		var h [hashBatch]uint64
		i := lo
		for ; i+hashBatch <= hi; i += hashBatch {
			b := keys[i : i+hashBatch : i+hashBatch]
			mixBatch(&h, b)
			for j, k := range b {
				atomic.AddUint64(&lanes[t.UpsertSlotH(k, h[j])], 1)
			}
		}
		for _, k := range keys[i:hi] {
			atomic.AddUint64(&lanes[t.UpsertSlotH(k, hashtbl.Mix(k))], 1)
		}
		t.EndBatch()
	})
}

func glbBuildSum(t *hashtbl.Concurrent, keys, vals []uint64, workers int) {
	glbLaneDrive(t, keys, vals, workers,
		func(lanes []uint64, b, v []uint64, h *[hashBatch]uint64) {
			for j, k := range b {
				atomic.AddUint64(&lanes[t.UpsertSlotH(k, h[j])], v[j])
			}
		},
		func(lanes []uint64, slot int, v uint64) {
			atomic.AddUint64(&lanes[slot], v)
		})
}

func glbBuildAvg(t *hashtbl.Concurrent, keys, vals []uint64, workers int) {
	glbLaneDrive(t, keys, vals, workers,
		func(lanes []uint64, b, v []uint64, h *[hashBatch]uint64) {
			for j, k := range b {
				s := t.UpsertSlotH(k, h[j]) * 2
				atomic.AddUint64(&lanes[s], v[j])
				atomic.AddUint64(&lanes[s+1], 1)
			}
		},
		func(lanes []uint64, slot int, v uint64) {
			atomic.AddUint64(&lanes[slot*2], v)
			atomic.AddUint64(&lanes[slot*2+1], 1)
		})
}

// casFoldMin lowers the lane toward v; the ^0 seed is the fold identity.
func casFoldMin(p *uint64, v uint64) {
	for {
		cur := atomic.LoadUint64(p)
		if v >= cur || atomic.CompareAndSwapUint64(p, cur, v) {
			return
		}
	}
}

// casFoldMax raises the lane toward v; the 0 seed is the fold identity.
func casFoldMax(p *uint64, v uint64) {
	for {
		cur := atomic.LoadUint64(p)
		if v <= cur || atomic.CompareAndSwapUint64(p, cur, v) {
			return
		}
	}
}

func glbBuildMin(t *hashtbl.Concurrent, keys, vals []uint64, workers int) {
	glbLaneDrive(t, keys, vals, workers,
		func(lanes []uint64, b, v []uint64, h *[hashBatch]uint64) {
			for j, k := range b {
				casFoldMin(&lanes[t.UpsertSlotH(k, h[j])], v[j])
			}
		},
		func(lanes []uint64, slot int, v uint64) {
			casFoldMin(&lanes[slot], v)
		})
}

func glbBuildMax(t *hashtbl.Concurrent, keys, vals []uint64, workers int) {
	glbLaneDrive(t, keys, vals, workers,
		func(lanes []uint64, b, v []uint64, h *[hashBatch]uint64) {
			for j, k := range b {
				casFoldMax(&lanes[t.UpsertSlotH(k, h[j])], v[j])
			}
		},
		func(lanes []uint64, slot int, v uint64) {
			casFoldMax(&lanes[slot], v)
		})
}

var glbMinSeed = []uint64{^uint64(0)}

// serial reports whether the query should take the serial fallback —
// Hash_LP's query body, marking Hash_GLB's own phase series: behaviourally
// identical results, none of the parallel machinery (mirrors rxRun's
// fallback so the engines' regimes coincide).
func (e *globalEngine) serial(n int) bool {
	return n < glbSerialCutoff || e.workers() == 1
}

func (e *globalEngine) VectorCount(keys []uint64) []GroupCount {
	return e.countQ1(keys, &phaseClock{})
}

func (e *globalEngine) countQ1(keys []uint64, c *phaseClock) []GroupCount {
	c.start(e.Name())
	if e.serial(len(keys)) {
		return e.lp.count(keys, c)
	}
	w := e.workers()
	t := glbTable(keys, 1, nil, w)
	glbBuildCount(t, keys, w)
	c.built()
	lanes := t.Vals()
	out := make([]GroupCount, 0, t.Len())
	t.Iterate(func(s int, k uint64) bool {
		out = append(out, GroupCount{Key: k, Count: lanes[s]})
		return true
	})
	c.iterated()
	return out
}

func (e *globalEngine) VectorAvg(keys, vals []uint64) []GroupFloat {
	var c phaseClock
	c.start(e.Name())
	if e.serial(len(keys)) {
		return e.lp.avg(keys, vals, &c)
	}
	w := e.workers()
	t := glbTable(keys, 2, nil, w)
	glbBuildAvg(t, keys, vals, w)
	c.built()
	lanes := t.Vals()
	out := make([]GroupFloat, 0, t.Len())
	t.Iterate(func(s int, k uint64) bool {
		// Same division as avgState.avg(): exact equivalence to the
		// serial reference, bit for bit.
		avg := avgState{sum: lanes[s*2], count: lanes[s*2+1]}.avg()
		out = append(out, GroupFloat{Key: k, Value: avg})
		return true
	})
	c.iterated()
	return out
}

func (e *globalEngine) VectorReduce(keys, vals []uint64, op ReduceOp) []GroupUint {
	var c phaseClock
	c.start(e.Name())
	if e.serial(len(keys)) {
		return e.lp.reduce(keys, vals, op, &c)
	}
	w := e.workers()
	var t *hashtbl.Concurrent
	switch op {
	case OpCount:
		t = glbTable(keys, 1, nil, w)
		glbBuildCount(t, keys, w)
	case OpSum:
		t = glbTable(keys, 1, nil, w)
		glbBuildSum(t, keys, vals, w)
	case OpMin:
		t = glbTable(keys, 1, glbMinSeed, w)
		glbBuildMin(t, keys, vals, w)
	case OpMax:
		t = glbTable(keys, 1, nil, w)
		glbBuildMax(t, keys, vals, w)
	}
	c.built()
	lanes := t.Vals()
	out := make([]GroupUint, 0, t.Len())
	t.Iterate(func(s int, k uint64) bool {
		out = append(out, GroupUint{Key: k, Value: lanes[s]})
		return true
	})
	c.iterated()
	return out
}

func (e *globalEngine) VectorMedian(keys, vals []uint64) []GroupFloat {
	return e.VectorHolistic(keys, vals, MedianFunc)
}

// VectorHolistic runs the buffer-and-replay holistic path described on the
// type: one parallel pass claims the group set and copies rows into
// per-worker buffers; one post-join replay builds the per-slot value lists
// (striped-locked in parallel under the Go runtime allocator, serially
// into a pooled arena under AllocArena).
func (e *globalEngine) VectorHolistic(keys, vals []uint64, fn HolisticFunc) []GroupFloat {
	var c phaseClock
	c.start(e.Name())
	if e.serial(len(keys)) {
		return e.lp.holistic(keys, vals, fn, &c)
	}
	w := e.workers()
	t := glbTable(keys, 0, nil, w)

	// Pass 1: claim every key into the shared table (freezing the slot
	// space at the join) while each worker copies its rows aside. The
	// copies, not the slots, carry the values across the join — slot
	// indices do not survive growth, buffered (key, value) pairs do.
	type buf struct {
		k, v []uint64
	}
	bufs := make([]buf, w)
	morsel.Drive(len(keys), w, glbMorselRows, func(worker, lo, hi int) {
		t.BeginBatch()
		var h [hashBatch]uint64
		i := lo
		for ; i+hashBatch <= hi; i += hashBatch {
			b := keys[i : i+hashBatch : i+hashBatch]
			mixBatch(&h, b)
			for j, k := range b {
				t.UpsertSlotH(k, h[j])
			}
		}
		for _, k := range keys[i:hi] {
			t.UpsertSlotH(k, hashtbl.Mix(k))
		}
		t.EndBatch()
		bb := &bufs[worker]
		bb.k = append(bb.k, keys[lo:hi]...)
		if hi <= len(vals) {
			bb.v = append(bb.v, vals[lo:hi]...)
		} else {
			for i := lo; i < hi; i++ {
				bb.v = append(bb.v, valueAt(vals, i))
			}
		}
	})
	c.built()

	// Pass 2: replay the buffers into per-slot lists through read-only
	// GetSlot probes (every key was claimed in pass 1; the table is
	// quiescent now, so no batches and no atomics are needed for probing).
	out := make([]GroupFloat, 0, t.Len())
	if e.lp.alloc == AllocArena {
		// A single-owner arena cannot take appends from many workers;
		// replay serially into one pooled arena (WithAllocator documents
		// the trade).
		ar := arenas.Get()
		defer arenas.Put(ar)
		lists := make([]arena.List, t.Cap()+1)
		for i := range bufs {
			for j, k := range bufs[i].k {
				ar.Append(&lists[t.GetSlot(k)], bufs[i].v[j])
			}
		}
		c.merged()
		var scratch []uint64
		t.Iterate(func(s int, k uint64) bool {
			scratch = ar.AppendTo(scratch[:0], lists[s])
			out = append(out, GroupFloat{Key: k, Value: fn(scratch)})
			return true
		})
	} else {
		lists := make([][]uint64, t.Cap()+1)
		parallelDo(w, func(worker int) {
			b := bufs[worker]
			for j, k := range b.k {
				s := t.GetSlot(k)
				t.DoLocked(s, func() {
					lists[s] = append(lists[s], b.v[j])
				})
			}
		})
		c.merged()
		t.Iterate(func(s int, k uint64) bool {
			out = append(out, GroupFloat{Key: k, Value: fn(lists[s])})
			return true
		})
	}
	c.iterated()
	return out
}
