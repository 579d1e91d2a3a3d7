package stream

import (
	"sync"
	"testing"
	"time"

	"memagg/internal/agg"
	"memagg/internal/dataset"
	"memagg/internal/obs"
	"memagg/internal/pairtest"
)

// ingestOnce pushes the whole dataset through a fresh stream with one
// producer per shard and returns the wall time from first Append to Flush
// return. SealRows is set past the dataset so no seal/merge cycles run:
// the guard isolates the Append hot path, where the timing instruments
// live, from the background pipeline's scheduling noise.
func ingestOnce(tb testing.TB, keys, vals []uint64, shards, batchLen int) time.Duration {
	s := New(Config{Shards: shards, QueueDepth: 8, SealRows: 1 << 21, MergeBits: 6})
	defer func() {
		if err := s.Close(); err != nil {
			tb.Fatal(err)
		}
	}()
	start := time.Now()
	var wg sync.WaitGroup
	per := len(keys) / shards
	for p := 0; p < shards; p++ {
		lo, hi := p*per, (p+1)*per
		if p == shards-1 {
			hi = len(keys)
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i += batchLen {
				j := i + batchLen
				if j > hi {
					j = hi
				}
				if err := s.AppendChunk(agg.Chunk{Keys: keys[i:j], Vals: vals[i:j]}, false); err != nil {
					tb.Error(err)
					return
				}
			}
		}(lo, hi)
	}
	wg.Wait()
	if err := s.Flush(); err != nil {
		tb.Fatal(err)
	}
	return time.Since(start)
}

// TestObsOverheadGuard proves the timing instrumentation is cheap: it
// ingests the same workload with the timing layer on and off
// (obs.SetDisabled) and fails when the instrumented run is more than 5%
// slower than the disabled one (budget: <2% expected, 5% allowed for
// scheduler noise). Wall-clock ratios are inherently noisy, so the guard
// runs only under pairtest.Gate (MEMAGG_GUARDS=1) — scripts/ci.sh sets
// it; a plain `go test ./...` skips.
func TestObsOverheadGuard(t *testing.T) {
	pairtest.Gate(t)
	const shards, batchLen = 1, 4096
	spec := dataset.Spec{Kind: dataset.RseqShf, N: 1_000_000, Cardinality: 100_000, Seed: 71}
	keys := spec.Keys()
	vals := dataset.Values(len(keys), spec.Seed)

	// One writer shard keeps the run near-deterministic (no producer/merger
	// time-sharing to randomize the clock).
	ingest := func(disabled bool) func() time.Duration {
		return func() time.Duration {
			obs.SetDisabled(disabled)
			return ingestOnce(t, keys, vals, shards, batchLen)
		}
	}
	defer obs.SetDisabled(false)
	pairtest.Run(t, 1.05, ingest(false), ingest(true))
}

// BenchmarkStreamIngestDisabled is BenchmarkStreamIngest's counterpart
// with the timing instruments off — diff the two to read the overhead
// directly:
//
//	go test ./internal/stream/ -bench 'StreamIngest(Disabled)?/shards=4' -benchtime 1000000x
func BenchmarkStreamIngestDisabled(b *testing.B) {
	obs.SetDisabled(true)
	defer obs.SetDisabled(false)
	BenchmarkStreamIngest(b)
}
