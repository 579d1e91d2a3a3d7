package stream

import (
	"memagg/internal/agg"
	"memagg/internal/obs"
)

// foldDeltas folds the sealed deltas ds into base's partitions with
// agg.Fold — the shared core of the merger's generation builds and the
// snapshot query path. Partitions no delta touched are shared with the
// base; with no base yet the deltas fold into an empty set at MergeBits.
func (s *Stream) foldDeltas(base *generation, ds []*delta, workers int) []agg.Table {
	var bp []agg.Table
	if base != nil {
		bp = base.parts
	} else {
		bp = make([]agg.Table, 1<<s.cfg.MergeBits)
	}
	srcs := make([]agg.Table, len(ds))
	for i, d := range ds {
		srcs[i] = d.Table
	}
	return agg.Fold(bp, srcs, s.cfg.Holistic, workers)
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
		v.srcs = s.foldDeltas(v.base, v.sealed, s.cfg.QueryWorkers)
		mk.Tick(s.m.queryFoldLat)
	})
	return v.srcs
}
