package stream

import (
	"runtime"
	"sync/atomic"
	"time"

	"memagg/internal/agg"
)

// generation is one base: the fold of every delta sealed before it was
// built, as an agg partition set of 2^MergeBits disjoint tables.
// Disjointness is what lets merge cycles fold partitions independently
// and in parallel, and lets snapshots iterate partitions knowing each
// group appears exactly once.
//
// A generation is immutable once a reader can see its tables. Until then
// the merger may fold the next deltas into it in place: state starts
// genFree, and the first of pin (a reader) and buildGeneration (the
// merger) to move it on wins for good — genShared keeps every later merge
// copy-on-write, genClaimed means an in-place fold has consumed the
// generation and the view is about to move past it. Stats and the
// metrics gauges read only the header fields (rows, groups, seq), which
// never change, so they need no pin.
type generation struct {
	parts  []agg.Table // len 2^MergeBits; a partition with no groups has a nil table
	rows   uint64
	groups int
	seq    uint64

	// owned[q] is true when no older generation, and no snapshot fold,
	// shares parts[q]: an in-place fold may mutate exactly those tables.
	owned []bool
	state atomic.Int32
}

// Generation states: see generation.
const (
	genFree int32 = iota
	genShared
	genClaimed
)

// ownedGeneration wraps a freshly built partition set nobody else
// references — a recovered base — as a fully owned generation.
func ownedGeneration(parts []agg.Table, rows, seq uint64) *generation {
	g := &generation{parts: parts, rows: rows, seq: seq, owned: make([]bool, len(parts))}
	for q := range g.owned {
		g.owned[q] = true
	}
	return g
}

// share marks g as visible to a reader, so no merge folds into it in
// place from now on. It fails only when an in-place fold has already
// claimed g.
func (g *generation) share() bool {
	return g.state.CompareAndSwap(genFree, genShared) || g.state.Load() == genShared
}

// pin loads the current view for a reader that will touch its base
// generation's tables (snapshots, the checkpointer) and marks the base
// shared. A base already claimed by an in-flight in-place fold is about
// to be superseded: pin waits for that merge cycle — the merger claims
// and installs under mergeMu — and reloads the view.
func (s *Stream) pin() *view {
	for {
		v := s.view.Load()
		if v.base == nil || v.base.share() {
			return v
		}
		s.mergeMu.Lock() // wait out the merge cycle that claimed v.base
		s.mergeMu.Unlock()
	}
}

// mergerLoop is the background folder: each doorbell ring merges every
// sealed delta pending at that moment into a new base generation. After
// Close drains the shards, the final loop folds whatever remains, so a
// closed stream's view is a single base generation. With the merger
// disabled the loop only drains the doorbell; sealed deltas stay in the
// view (snapshot queries fold them per view) until an explicit MergeNow.
func (s *Stream) mergerLoop() {
	defer s.mergerWG.Done()
	if s.cfg.DisableMerger {
		for range s.wake {
		}
		return
	}
	for range s.wake {
		s.mergeOnce()
	}
	for s.mergeOnce() {
	}
}

// MergeNow synchronously folds every currently sealed delta into a new
// base generation — explicit compaction for merger-disabled streams (and
// a deterministic layering tool for benchmarks). Safe to call at any
// time; it serializes with the background merger. Returns false when
// there was nothing to merge.
func (s *Stream) MergeNow() bool { return s.mergeOnce() }

// mergeOnce folds the currently sealed deltas (a prefix of the view's
// sealed list — seals only append) into a new generation and installs the
// updated view. Returns false when there was nothing to merge. mergeMu
// serializes whole cycles: the load-build-install sequence assumes the
// sealed prefix it folded is still the view's prefix at install time,
// which concurrent cycles (background merger racing MergeNow) would break.
func (s *Stream) mergeOnce() bool {
	s.mergeMu.Lock()
	defer s.mergeMu.Unlock()
	v := s.view.Load()
	n := len(v.sealed)
	if n == 0 {
		return false
	}
	start := time.Now()
	g := s.buildGeneration(v.base, v.sealed[:n])
	elapsed := time.Since(start)

	s.viewMu.Lock()
	cur := s.view.Load()
	// cur.sealed extends v.sealed (installs serialize through viewMu and
	// seals append), so the unmerged suffix is everything past the prefix
	// we just folded. The watermark is unchanged: merging moves rows
	// between layers of the view, it does not add any.
	s.install(&view{base: g, sealed: cur.sealed[n:], watermark: cur.watermark})
	s.viewMu.Unlock()

	s.m.merges.Inc()
	s.m.mergeNs.Add(uint64(elapsed))
	s.m.lastMerge.Set(int64(elapsed))
	s.m.mergeLat.Observe(elapsed)
	s.maybeCheckpoint(g)
	return true
}

// buildGeneration folds base plus the sealed deltas ds into a new
// generation via the shared partition-wise fold (foldDeltas) at
// GOMAXPROCS, then derives the generation bookkeeping. When no reader has
// pinned base it claims it and folds in place into the partitions base
// owns; otherwise the fold is copy-on-write. Either way the new
// generation owns exactly the partitions no older generation can see.
func (s *Stream) buildGeneration(base *generation, ds []*delta) *generation {
	var own []bool
	if base != nil && base.state.CompareAndSwap(genFree, genClaimed) {
		own = base.owned
	}
	parts, inPlace := s.foldDeltas(base, ds, own, runtime.GOMAXPROCS(0))

	g := &generation{parts: parts, seq: 1, owned: make([]bool, len(parts))}
	copied := 0
	for q, p := range parts {
		var bp agg.Table
		if base != nil {
			bp = base.parts[q]
		}
		fresh := p.T != bp.T
		g.owned[q] = fresh || own != nil && own[q]
		if fresh && bp.T != nil {
			copied++
		}
	}
	s.m.mergeInPlace.Add(uint64(inPlace))
	s.m.mergeCopied.Add(uint64(copied))
	if base != nil {
		g.rows = base.rows
		g.seq = base.seq + 1
	}
	for _, d := range ds {
		g.rows += d.rows
	}
	g.groups = agg.Groups(parts)
	return g
}
