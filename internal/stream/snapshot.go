package stream

import "memagg/internal/agg"

// Snapshot is a consistent, immutable read view of the stream: the base
// generation plus every delta sealed before the snapshot was taken, pinned
// by a single atomic pointer load. All queries over one snapshot see
// exactly Watermark() rows — ingest and merging proceed untouched
// underneath, and the pinned state is reclaimed by the GC when the last
// snapshot referencing it is dropped.
//
// Query results use the hash-engine conventions of internal/agg: vector
// row order is unspecified (sort if you need order — CountRange, which is
// inherently ordered, returns ascending keys), and results are identical
// to running the corresponding batch engine over the same rows.
//
// A Snapshot is safe for concurrent use. Query state is shared at the
// view level, not the snapshot level: the first query over a view that
// pins unmerged deltas folds them partition-wise into key-disjoint
// sources (in parallel at Config.QueryWorkers), agg.Run's kernels scan
// those partitions in parallel above its serial group-count cutoff, and on
// a cache-enabled stream materialized results are memoized on the view —
// keyed by the agg.Query, single-flight — so every snapshot of an
// unchanged view shares both the fold and the results. Cached vector
// results are shared slices; treat them as read-only.
type Snapshot struct {
	s *Stream
	v *view
}

// Snapshot pins the current view. Never blocks writers or the merger.
func (s *Stream) Snapshot() *Snapshot {
	s.m.snapshots.Inc()
	return &Snapshot{s: s, v: s.view.Load()}
}

// Watermark returns the number of rows this snapshot covers. Every query
// result is exactly consistent with these rows.
func (sn *Snapshot) Watermark() uint64 { return sn.v.watermark }

// Parts returns key-disjoint tables jointly holding every group, folding
// the view's sealed deltas partition-wise on first use (see view.sources)
// — what queries scan and the cluster transport (internal/cluster)
// encodes. Entries with a nil table hold no groups. The tables are the
// snapshot's live state: read-only, valid while the snapshot is held.
func (sn *Snapshot) Parts() []agg.Table { return sn.v.sources(sn.s) }

// Run executes q over the snapshot through agg.Run — the one kernel set —
// at the stream's query parallelism, memoized on the view when the stream
// caches results. The result types are agg.Run's. The up-front Check keeps
// unrunnable queries out of the cache: a NaN quantile would be a key that
// never compares equal to itself.
func (sn *Snapshot) Run(q agg.Query) (any, error) {
	cfg := &sn.s.cfg
	if err := q.Check(cfg.Holistic); err != nil {
		return nil, err
	}
	if q.ID == agg.QCount {
		// Q4 is the watermark: answering it must not force the delta fold
		// the other queries need (seconds, right after a recovery).
		return sn.v.watermark, nil
	}
	compute := func() any {
		v, _ := agg.Run(sn.Parts(), q, agg.RunEnv{
			Rows:     sn.v.watermark,
			Holistic: cfg.Holistic,
			Workers:  cfg.QueryWorkers,
			ScanLat:  sn.s.m.queryScanLat,
			MergeLat: sn.s.m.queryMergeLat,
		})
		return v
	}
	if c := sn.v.cache; c != nil {
		return c.do(sn.s.m, q, compute), nil
	}
	return compute(), nil
}

// run is Run with the result asserted to the query's type — the body of
// every typed method below. must drops the error of the queries that
// cannot fail.
func run[T any](sn *Snapshot, q agg.Query) (T, error) {
	v, err := sn.Run(q)
	if err != nil {
		var zero T
		return zero, err
	}
	return v.(T), nil
}

func must[T any](v T, _ error) T { return v }

// HolisticEnabled reports whether this snapshot's stream retains value
// multisets (median/quantile/mode queries answerable).
func (sn *Snapshot) HolisticEnabled() bool { return sn.s.cfg.Holistic }

// Groups returns the number of distinct keys the snapshot covers. This is
// the exact count, which requires the delta fold when unmerged deltas are
// pinned (keys may repeat across layers).
func (sn *Snapshot) Groups() int { return agg.Groups(sn.Parts()) }

// CountByKey executes Q1: one (key, COUNT(*)) row per distinct key.
func (sn *Snapshot) CountByKey() []agg.GroupCount {
	return must(run[[]agg.GroupCount](sn, agg.Query{ID: agg.QCountByKey}))
}

// AvgByKey executes Q2: one (key, AVG(val)) row per distinct key, computed
// as one float64 division of the exact integer sum — bit-identical to the
// batch engines.
func (sn *Snapshot) AvgByKey() []agg.GroupFloat {
	return must(run[[]agg.GroupFloat](sn, agg.Query{ID: agg.QAvgByKey}))
}

// Reduce executes the generalized distributive vector query: one
// (key, op(val)) row per distinct key, for any ReduceOp (an unknown op
// answers nil).
func (sn *Snapshot) Reduce(op agg.ReduceOp) []agg.GroupUint {
	return must(run[[]agg.GroupUint](sn, agg.Query{ID: agg.QReduce, Op: op}))
}

// MedianByKey executes Q3 (holistic): one (key, MEDIAN(val)) row per
// distinct key. Requires Config.Holistic; otherwise the value multisets
// were not retained and the query returns agg.ErrUnsupported.
func (sn *Snapshot) MedianByKey() ([]agg.GroupFloat, error) {
	return run[[]agg.GroupFloat](sn, agg.Query{ID: agg.QMedianByKey})
}

// QuantileByKey executes the nearest-rank q-quantile per distinct key,
// q in [0, 1]. Requires Config.Holistic.
func (sn *Snapshot) QuantileByKey(q float64) ([]agg.GroupFloat, error) {
	return run[[]agg.GroupFloat](sn, agg.Query{ID: agg.QQuantile, P: q})
}

// ModeByKey executes the most-frequent-value query per distinct key.
// Requires Config.Holistic.
func (sn *Snapshot) ModeByKey() ([]agg.GroupFloat, error) {
	return run[[]agg.GroupFloat](sn, agg.Query{ID: agg.QMode})
}

// Count executes Q4: COUNT(*) over the snapshot — the watermark itself.
func (sn *Snapshot) Count() uint64 { return sn.v.watermark }

// Avg executes Q5: AVG over the value column.
func (sn *Snapshot) Avg() float64 { return must(run[float64](sn, agg.Query{ID: agg.QAvg})) }

// Median executes Q6: MEDIAN over the key column — exact here, where the
// batch hash engines return ErrUnsupported (see agg.Run). The error is
// always nil; the signature matches the batch engines'.
func (sn *Snapshot) Median() (float64, error) { return run[float64](sn, agg.Query{ID: agg.QMedian}) }

// CountRange executes Q7: Q1 restricted to lo <= key <= hi, rows ascending
// by key (the tree-engine convention — a range query is inherently
// ordered). The error is always nil; the signature matches the batch
// engines'.
func (sn *Snapshot) CountRange(lo, hi uint64) ([]agg.GroupCount, error) {
	return run[[]agg.GroupCount](sn, agg.Query{ID: agg.QRange, Lo: lo, Hi: hi})
}
