package hashtbl

import (
	"sync"
	"sync/atomic"
)

// Concurrent is an aggregation-tuned concurrent linear-probing hash table:
// the single global shared structure behind the morsel-driven Hash_GLB
// engine ("Global Hash Tables Strike Back!", arxiv 2505.04153, argues this
// design point against radix partitioning on modern many-core).
//
// The table separates the two halves of an aggregation upsert so each can
// use the cheapest possible synchronization:
//
//   - Slot claiming is lock-free. Keys live in one open-addressed array
//     probed linearly (same discipline as LinearProbe); an empty slot is
//     claimed by a single CompareAndSwap of the key word, which doubles as
//     the slot's publication — any worker that subsequently reads the key
//     sees a fully claimed slot, because the slot's identity IS the key
//     word. Losing a claim race re-reads the slot (the winner may have
//     inserted the same key) and otherwise probes on.
//
//   - Aggregate state lives in per-slot "lanes": a fixed number of uint64
//     words per slot, updated by the caller with atomic adds (COUNT, SUM,
//     AVG's sum+count) or CAS loops against a lattice identity (MIN seeded
//     with ^0, MAX with 0). Because every update is commutative and the
//     readout happens after the build joins, no update ever needs the
//     slot's history — the whole build is wait-free per lane word.
//
//   - Non-commutative updates (appending to a group's holistic value list)
//     take a striped fallback: DoLocked serializes on one of NumStripes
//     slot-striped mutexes, so unrelated groups proceed in parallel while
//     same-group appends are ordered. The Hash_GLB engine uses it only in
//     the once-per-build holistic merge, never in the row loop.
//
// Growth is cooperative and batch-granular. Workers bracket each morsel
// with BeginBatch/EndBatch (a read-lock on the table identity); BeginBatch
// checks the claim count and, past the 3/4-load threshold, takes the write
// lock — quiescing in-flight morsels — doubles the arrays and rehashes.
// Slot indices are therefore stable within a batch, never across batches.
// Sizing guarantees the overshoot is safe: a grow decision is only
// observed at batch boundaries, so up to slack = workers × morsel-rows
// claims can land past the threshold; NewConcurrent keeps slots >= 8 ×
// slack, bounding the worst-case load at 3/4 + 1/8 = 7/8 — LinearProbe's
// maximum. Pre-sizing from a cardinality estimate (the engine's
// EstimatedGroups path) makes growth the exception, not the steady state.
//
// Key 0 uses a dedicated zero cell, as in LinearProbe: the zero slot is
// Cap() (one past the last probe slot), and the lane arrays carry one
// extra slot for it.
type Concurrent struct {
	// mu guards the identity of keys/vals: batches hold it shared, growth
	// exclusive. Lane and key words are only ever touched with atomics
	// while shared.
	mu   sync.RWMutex
	keys []uint64
	vals []uint64 // (len(keys)+1) * lanes words, slot-major; nil if lanes == 0
	mask uint64

	lanes    int
	laneInit []uint64 // per-lane identity written to empty slots (nil = zeros)
	slack    int      // max claims that may land past the grow threshold

	size    atomic.Int64 // claimed slots, excluding the zero cell
	growAt  int64        // claim count that triggers doubling (3/4 load)
	hasZero atomic.Bool

	stripes [NumStripes]paddedMutex
}

// NumStripes is the size of the striped-lock fallback: enough stripes that
// workers appending to distinct groups rarely collide, few enough that the
// mutex array stays cache-resident.
const NumStripes = 128

type paddedMutex struct {
	sync.Mutex
	_ [56]byte // pad to a cache line so stripe locks don't false-share
}

const (
	ctMaxLoadNum = 3
	ctMaxLoadDen = 4
)

// NewConcurrent returns a table pre-sized for capacity groups with the
// given number of lane words per slot (lanes may be 0 for claim-only use,
// e.g. the holistic path). laneInit, when non-nil, is the per-lane value
// empty slots start from — the fold's identity element (^0 for MIN);
// nil means zeros. slack is the maximum number of claims that can land
// between two growth checks — workers × morsel-rows for a morsel-driven
// build — and bounds the post-threshold overshoot (see the type comment).
func NewConcurrent(capacity, lanes int, laneInit []uint64, slack int) *Concurrent {
	if lanes > 0 && laneInit != nil && len(laneInit) != lanes {
		panic("hashtbl: laneInit length does not match lanes")
	}
	if slack < 1 {
		slack = 1
	}
	slots := NextPow2(maxInt(maxInt(capacity*ctMaxLoadDen/ctMaxLoadNum, 8*slack), 1024))
	t := &Concurrent{lanes: lanes, laneInit: laneInit, slack: slack}
	t.alloc(slots)
	return t
}

func (t *Concurrent) alloc(slots int) {
	t.keys = make([]uint64, slots)
	t.mask = uint64(slots - 1)
	t.growAt = int64(slots * ctMaxLoadNum / ctMaxLoadDen)
	if t.lanes == 0 {
		return
	}
	t.vals = make([]uint64, (slots+1)*t.lanes)
	if t.laneInit == nil {
		return
	}
	needInit := false
	for _, v := range t.laneInit {
		if v != 0 {
			needInit = true
			break
		}
	}
	if !needInit {
		return
	}
	for s := 0; s <= slots; s++ {
		copy(t.vals[s*t.lanes:(s+1)*t.lanes], t.laneInit)
	}
}

// BeginBatch opens one batch of claims/updates: it grows the table first
// if the last batch round pushed it past the load threshold, then takes
// the table identity shared and returns the current lane array. Slot
// indices obtained inside the batch index into exactly this array and are
// invalid after EndBatch (growth may relocate them). Every worker must
// pair BeginBatch with EndBatch; updates outside a batch race with growth.
func (t *Concurrent) BeginBatch() []uint64 {
	if t.size.Load() >= t.loadGrowAt() {
		t.growLocked()
	}
	t.mu.RLock()
	return t.vals
}

// EndBatch closes a batch opened by BeginBatch.
func (t *Concurrent) EndBatch() { t.mu.RUnlock() }

// loadGrowAt reads the grow threshold under the shared lock (it changes
// only under the exclusive lock, during growth).
func (t *Concurrent) loadGrowAt() int64 {
	t.mu.RLock()
	g := t.growAt
	t.mu.RUnlock()
	return g
}

// growLocked doubles the table. Taking the exclusive lock waits out every
// in-flight batch, so the rehash sees a quiescent table and can use plain
// loads/stores. Double-checked: concurrent workers that also observed the
// threshold find it already raised and return.
func (t *Concurrent) growLocked() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.size.Load() < t.growAt {
		return
	}
	oldKeys, oldVals := t.keys, t.vals
	oldCap := len(oldKeys)
	t.alloc(oldCap * 2)
	for i, k := range oldKeys {
		if k == 0 {
			continue
		}
		j := Mix(k) & t.mask
		for t.keys[j] != 0 {
			j = (j + 1) & t.mask
		}
		t.keys[j] = k
		if t.lanes > 0 {
			copy(t.vals[int(j)*t.lanes:(int(j)+1)*t.lanes], oldVals[i*t.lanes:(i+1)*t.lanes])
		}
	}
	if t.lanes > 0 {
		// The zero cell rides along: old slot oldCap -> new slot len(keys).
		copy(t.vals[len(t.keys)*t.lanes:], oldVals[oldCap*t.lanes:(oldCap+1)*t.lanes])
	}
}

// UpsertSlotH returns the slot for key (hash h, which must be Mix(key)),
// claiming an empty slot with a CAS when the key is new. The caller must
// hold an open batch; the returned slot indexes the lane array that batch's
// BeginBatch returned, at slot times the table's lane count. The zero key
// maps to the dedicated zero cell, Cap().
func (t *Concurrent) UpsertSlotH(key, h uint64) int {
	if key == 0 {
		if !t.hasZero.Load() {
			t.hasZero.Store(true)
		}
		return len(t.keys)
	}
	i := h & t.mask
	for {
		k := atomic.LoadUint64(&t.keys[i])
		if k == key {
			return int(i)
		}
		if k == 0 {
			if atomic.CompareAndSwapUint64(&t.keys[i], 0, key) {
				t.size.Add(1)
				return int(i)
			}
			// Lost the claim race; the winner may have inserted our key.
			if atomic.LoadUint64(&t.keys[i]) == key {
				return int(i)
			}
		}
		i = (i + 1) & t.mask
	}
}

// GetSlot returns the slot holding key, or -1 when absent. Quiescent-read
// helper for the post-build phases (holistic merge, tests): it takes no
// lock and uses plain loads, so callers must ensure no batch is open.
func (t *Concurrent) GetSlot(key uint64) int {
	if key == 0 {
		if t.hasZero.Load() {
			return len(t.keys)
		}
		return -1
	}
	i := Mix(key) & t.mask
	for {
		k := t.keys[i]
		if k == key {
			return int(i)
		}
		if k == 0 {
			return -1
		}
		i = (i + 1) & t.mask
	}
}

// DoLocked runs fn holding the stripe lock for slot — the serialization
// fallback for non-commutative per-group updates (value-list appends).
// Calls for the same slot are mutually exclusive; calls for slots on
// different stripes run in parallel.
func (t *Concurrent) DoLocked(slot int, fn func()) {
	m := &t.stripes[slot&(NumStripes-1)]
	m.Lock()
	fn()
	m.Unlock()
}

// Len returns the number of stored keys, including the zero cell. Exact
// only when no batch is open.
func (t *Concurrent) Len() int {
	n := int(t.size.Load())
	if t.hasZero.Load() {
		n++
	}
	return n
}

// Cap returns the number of probe slots (the zero cell excluded — it is
// addressed as slot Cap()).
func (t *Concurrent) Cap() int { return len(t.keys) }

// Vals returns the current lane array. Quiescent-read helper for the
// post-build emit phase; invalidated by growth like any slot index.
func (t *Concurrent) Vals() []uint64 { return t.vals }

// Iterate calls fn for every claimed slot (the zero cell first, when
// claimed), in unspecified order, stopping early if fn returns false.
// Quiescent-read helper: callers must ensure no batch is open.
func (t *Concurrent) Iterate(fn func(slot int, key uint64) bool) {
	if t.hasZero.Load() {
		if !fn(len(t.keys), 0) {
			return
		}
	}
	for i, k := range t.keys {
		if k != 0 {
			if !fn(i, k) {
				return
			}
		}
	}
}
