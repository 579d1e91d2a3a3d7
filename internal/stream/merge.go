package stream

import (
	"runtime"
	"time"

	"memagg/internal/agg"
)

// generation is one immutable base: the fold of every delta sealed before
// it was built, as an agg partition set of 2^MergeBits disjoint tables.
// Disjointness is what lets merge cycles rebuild partitions independently
// and in parallel, and lets snapshots iterate partitions knowing each
// group appears exactly once.
type generation struct {
	parts  []agg.Table // len 2^MergeBits; a partition with no groups has a nil table
	rows   uint64
	groups int
	seq    uint64
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
	s.install(s.newView(g, cur.sealed[n:], cur.watermark))
	s.viewMu.Unlock()

	s.m.merges.Inc()
	s.m.mergeNs.Add(uint64(elapsed))
	s.m.lastMerge.Set(int64(elapsed))
	s.m.mergeLat.Observe(elapsed)
	s.maybeCheckpoint(g)
	return true
}

// buildGeneration folds base plus the sealed deltas ds into a fresh
// generation via the shared partition-wise fold (foldDeltas) at
// GOMAXPROCS, then derives the generation bookkeeping.
func (s *Stream) buildGeneration(base *generation, ds []*delta) *generation {
	parts := s.foldDeltas(base, ds, runtime.GOMAXPROCS(0))

	g := &generation{parts: parts, seq: 1}
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
