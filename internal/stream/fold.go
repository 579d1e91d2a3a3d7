package stream

import (
	"memagg/internal/agg"
	"memagg/internal/obs"
)

// foldDeltas folds the sealed deltas ds into base's partitions with
// agg.Fold — the shared core of the merger's generation builds and the
// snapshot query path — and returns the partitions plus the count folded
// in place. own is agg.Fold's ownership mask: nil (the snapshot path, and
// the merger whenever a reader holds base) folds copy-on-write, and
// partitions no delta touched are shared with the base either way. With
// no base yet the deltas fold into an empty set at MergeBits. Every
// delta is partitioned at MergeBits: a table delta's partition q folds
// straight into base partition q, and base partition q observes a run
// delta's rows for q.
func (s *Stream) foldDeltas(base *generation, ds []*delta, own []bool, workers int) ([]agg.Table, int) {
	var bp []agg.Table
	if base != nil {
		bp = base.parts
	} else {
		bp = make([]agg.Table, 1<<s.cfg.MergeBits)
	}
	srcs := make([]agg.Source, len(ds))
	for i, d := range ds {
		srcs[i] = d.src
	}
	return agg.Fold(bp, srcs, own, s.cfg.Holistic, workers)
}

// sources returns the view's key-disjoint source tables, folding on first
// use. With no unmerged deltas the base generation's partitions serve
// directly (zero copy); otherwise the first query over any snapshot of
// this view runs the partition-wise fold at the stream's query
// parallelism, and every later snapshot of the view reuses the result.
func (v *view) sources(s *Stream) []agg.Table {
	v.fold.Do(func() {
		if len(v.sealed) == 0 {
			if v.base != nil {
				v.srcs = v.base.parts
			}
			return
		}
		mk := obs.Start()
		v.srcs, _ = s.foldDeltas(v.base, v.sealed, nil, s.cfg.queryWorkers)
		mk.Tick(s.m.queryFoldLat)
	})
	return v.srcs
}
