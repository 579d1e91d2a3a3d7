package stream

import (
	"runtime/debug"
	"testing"
	"time"

	"memagg/internal/agg"
	"memagg/internal/dataset"
	"memagg/internal/pairtest"
	"memagg/internal/wal"
)

// walIngestOnce pushes the whole dataset through a fresh stream —
// durable when fs is non-nil, volatile otherwise — and returns the
// wall time from first Append to Flush return. Unlike the obs guard's
// ingestOnce, SealRows is small enough that seals (and therefore WAL
// appends) actually happen: the guard measures the logging path, not
// just the Append hot loop. The log lives on a MemFS so the measured
// cost is the WAL code path itself (row mirror, encode, CRC, write) —
// on a real disk, kernel writeback lands on later rounds at the page
// cache's whim and would randomize a wall-clock ratio; sustained
// on-disk throughput is bench/'s ingest_durable workload.
// CheckpointEvery is negative so neither mode pays checkpoint I/O, and
// Close (final checkpoint, fsync) is excluded from the timed window.
func walIngestOnce(tb testing.TB, keys, vals []uint64, fs wal.FS, batchLen int) time.Duration {
	cfg := Config{Shards: 1, QueueDepth: 8, SealRows: 1 << 14, MergeBits: 6}
	var s *Stream
	if fs == nil {
		s = New(cfg)
	} else {
		cfg.Durability = Durability{Dir: "guard", FS: fs, SyncPolicy: wal.SyncNone, CheckpointEvery: -1}
		var err error
		if s, err = Open(cfg); err != nil {
			tb.Fatal(err)
		}
	}
	defer func() {
		if err := s.Close(); err != nil {
			tb.Fatal(err)
		}
	}()
	start := time.Now()
	for i := 0; i < len(keys); i += batchLen {
		j := i + batchLen
		if j > len(keys) {
			j = len(keys)
		}
		if err := s.AppendChunk(agg.Chunk{Keys: keys[i:j], Vals: vals[i:j]}, false); err != nil {
			tb.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		tb.Fatal(err)
	}
	// Wait for the merger to drain before stopping the clock. On one CPU
	// the background merge time-shares with ingest at the scheduler's
	// whim; ending the window at Flush would time a random fraction of
	// the merge work. Draining it makes each run's window the full,
	// deterministic cost of its configuration.
	for len(s.view.Load().sealed) > 0 {
		time.Sleep(200 * time.Microsecond)
	}
	return time.Since(start)
}

// TestWALOverheadGuard proves the no-fsync durability tier is cheap
// enough to leave on: the same workload ingested with a SyncPolicy=none
// WAL must stay within 15% of a fully volatile stream. The WAL path adds
// a raw-row mirror per delta plus an encode+buffered-write per seal, all
// off the producer's critical path except the mirror append — 15% is the
// ceiling, not the expectation. Wall-clock ratios are noisy, so the guard
// runs only under pairtest.Gate (MEMAGG_GUARDS=1) — scripts/ci.sh sets
// it; a plain `go test ./...` skips.
func TestWALOverheadGuard(t *testing.T) {
	pairtest.Gate(t)
	const batchLen = 4096
	spec := dataset.Spec{Kind: dataset.RseqShf, N: 1_000_000, Cardinality: 100_000, Seed: 71}
	keys := spec.Keys()
	vals := dataset.Values(len(keys), spec.Seed)

	// GC pauses land on whichever run happens to cross a heap-growth
	// threshold; with collection off and the GC pairtest runs before
	// every run, each run starts from the same clean heap and none is
	// interrupted.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	// Each durable run gets a fresh MemFS so no run pays replay for the
	// last.
	pairtest.Run(t, 1.15,
		func() time.Duration { return walIngestOnce(t, keys, vals, wal.NewMemFS(), batchLen) },
		func() time.Duration { return walIngestOnce(t, keys, vals, nil, batchLen) })
}
