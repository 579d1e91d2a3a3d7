package stream

import (
	"os"
	"runtime"
	"testing"
	"time"

	"memagg/internal/agg"
	"memagg/internal/dataset"
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
// allowed for scheduler noise, confirmed twice like the obs guard.
// Wall-clock ratios are noisy, so the guard only runs when
// MEMAGG_QUERY_GUARD=1 — scripts/ci.sh sets it; plain `go test ./...`
// skips.
func TestQueryOverheadGuard(t *testing.T) {
	if os.Getenv("MEMAGG_QUERY_GUARD") != "1" {
		t.Skip("set MEMAGG_QUERY_GUARD=1 to run the query overhead guard")
	}
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

	// Warm both paths, then keep the per-mode minimum of interleaved runs:
	// the least interfered-with run is the honest cost of each path.
	const parallelPath, serialPath = 0, 1 << 30
	for _, cutoff := range []int{parallelPath, serialPath} {
		agg.SerialQueryCutoff = cutoff
		queryOnce(t, s)
	}
	measure := func(rounds int) float64 {
		best := map[int]time.Duration{}
		for r := 0; r < rounds; r++ {
			for _, cutoff := range []int{parallelPath, serialPath} {
				agg.SerialQueryCutoff = cutoff
				runtime.GC()
				el := queryOnce(t, s)
				if cur, ok := best[cutoff]; !ok || el < cur {
					best[cutoff] = el
				}
			}
		}
		ratio := float64(best[parallelPath]) / float64(best[serialPath])
		t.Logf("parallel-path=%v serial-path=%v ratio=%.4f",
			best[parallelPath], best[serialPath], ratio)
		return ratio
	}

	ratio := measure(7)
	if ratio > 1.20 {
		// A real regression reproduces; a scheduler hiccup does not.
		ratio = measure(14)
	}
	if ratio > 1.20 {
		t.Fatalf("parallel query path at 1 worker is %.1f%% slower than serial (budget 20%%, confirmed twice)",
			(ratio-1)*100)
	}
}
