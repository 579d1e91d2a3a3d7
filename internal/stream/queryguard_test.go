package stream

import (
	"testing"
	"time"

	"memagg/internal/agg"
	"memagg/internal/dataset"
	"memagg/internal/pairtest"
)

// queryOnce runs one full pass of the vector kernels (Q1, Q2, SUM-reduce)
// over a fresh snapshot of a pre-built stream and returns the wall time.
// The caller controls agg.SerialQueryCutoff and cfg.QueryWorkers; caching is
// off in the guard's streams, so every pass really scans.
func queryOnce(tb testing.TB, s *Stream) time.Duration {
	tb.Helper()
	sn := s.Snapshot()
	start := time.Now()
	if r := sn.CountByKey(); len(r) == 0 {
		tb.Fatal("empty Q1")
	}
	sn.AvgByKey()
	sn.Reduce(agg.OpSum)
	return time.Since(start)
}

// TestQueryOverheadGuard proves the parallel query machinery is free when
// it cannot help: the partition-parallel path at one worker (cutoff
// forced off) must not be materially slower than the plain serial path
// (cutoff forced past every group count) on the same view. The morsel
// dispatch and offset bookkeeping should cost low single digits; 20% is
// allowed for scheduler noise. Wall-clock ratios are noisy, so the guard
// runs only under pairtest.Gate (MEMAGG_GUARDS=1) — scripts/ci.sh sets
// it; plain `go test ./...` skips.
func TestQueryOverheadGuard(t *testing.T) {
	pairtest.Gate(t)
	defer func(c int) { agg.SerialQueryCutoff = c }(agg.SerialQueryCutoff)

	spec := dataset.Spec{Kind: dataset.RseqShf, N: 1_000_000, Cardinality: 65_536, Seed: 72}
	keys := spec.Keys()
	vals := dataset.Values(len(keys), spec.Seed)
	// One stream, fully merged (no per-query fold, no sealed deltas): the
	// guard isolates the scan path. Cache off so repeated passes compute.
	s := layeredStream(t, Config{SealRows: 1 << 14, MergeBits: 6,
		QueryWorkers: 1, QueryCacheEntries: -1}, keys, vals, len(keys))
	defer func() {
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}()

	query := func(cutoff int) func() time.Duration {
		return func() time.Duration {
			agg.SerialQueryCutoff = cutoff
			return queryOnce(t, s)
		}
	}
	const parallelPath, serialPath = 0, 1 << 30
	pairtest.Run(t, 1.20, query(parallelPath), query(serialPath))
}
