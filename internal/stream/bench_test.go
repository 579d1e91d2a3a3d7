package stream

import (
	"sync"
	"testing"

	"memagg/internal/agg"
	"memagg/internal/dataset"
)

// BenchmarkStreamIngest measures end-to-end ingest throughput (Append →
// seal → merge, flushed at the end) on a 1M-row / 100k-group workload, with
// as many producer goroutines as shards. b.N counts ROWS; the rows/s metric
// is the headline number for EXPERIMENTS.md.
//
// The est=y variants set Config.EstimatedGroups so each delta table is
// seeded near its final size instead of growing from the 1<<10 default —
// at SealRows = 1<<15 and ~100k-group data the unseeded delta rehashes
// through five doublings (1Ki → 32Ki slots) before every seal, all of it
// on the shard's critical path. Before/after on this workload (1 shard,
// single-core container, 1M rows): 4.3M rows/s unseeded → 6.0M rows/s
// seeded — ~40% more ingest throughput from sizing alone, the same
// EstimatedGroups discipline the batch engines apply via estimateGroups.
//
//	go test ./internal/stream/ -bench StreamIngest -benchtime 1000000x
func BenchmarkStreamIngest(b *testing.B) {
	const groups, batchLen = 100_000, 4096
	spec := dataset.Spec{Kind: dataset.RseqShf, N: 1_000_000, Cardinality: groups, Seed: 71}
	keys := spec.Keys()
	vals := dataset.Values(len(keys), spec.Seed)

	for _, cfg := range []struct {
		shards int
		est    int
	}{{1, 0}, {1, groups}, {4, 0}, {4, groups}, {8, 0}, {8, groups}} {
		b.Run(benchName(cfg.shards, cfg.est > 0), func(b *testing.B) {
			shards := cfg.shards
			s := New(Config{Shards: shards, SealRows: 1 << 15,
				MergeBits: 6, EstimatedGroups: cfg.est})
			b.ResetTimer()

			// Split b.N rows across one producer per shard; each producer
			// appends batchLen-row slices of the dataset, wrapping as needed.
			var wg sync.WaitGroup
			per := b.N / shards
			for p := 0; p < shards; p++ {
				n := per
				if p == shards-1 {
					n = b.N - per*(shards-1)
				}
				wg.Add(1)
				go func(p, n int) {
					defer wg.Done()
					off := (p * per) % len(keys)
					for n > 0 {
						m := batchLen
						if m > n {
							m = n
						}
						if off+m > len(keys) {
							off = 0
						}
						if err := s.AppendChunk(agg.Chunk{Keys: keys[off : off+m], Vals: vals[off : off+m]}); err != nil {
							b.Error(err)
							return
						}
						off += m
						n -= m
					}
				}(p, n)
			}
			wg.Wait()
			if err := s.Flush(); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			elapsed := b.Elapsed().Seconds()
			if elapsed > 0 {
				b.ReportMetric(float64(b.N)/elapsed, "rows/s")
			}
			if err := s.Close(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkSnapshotQuery measures the snapshot query path on a 1M-row /
// 64Ki-group layered view (half merged into the base, half pinned as
// sealed deltas). Variants cover the axes the tentpole added:
//
//	fold=cold  — every iteration builds a fresh identical stream, so the
//	             per-iteration cost includes the partition-wise delta fold
//	fold=warm  — one stream, fold memoized on the view: the pure scan
//	             cost
//
// serial forces the pre-PR path (cutoff above every group count); par=N
// runs the partition-parallel kernels at N workers.
//
//	go test ./internal/stream/ -bench SnapshotQuery -benchtime 20x
func BenchmarkSnapshotQuery(b *testing.B) {
	defer func(c int) { agg.SerialQueryCutoff = c }(agg.SerialQueryCutoff)
	spec := dataset.Spec{Kind: dataset.RseqShf, N: 1_000_000, Cardinality: 1 << 16, Seed: 73}
	keys := spec.Keys()
	vals := dataset.Values(len(keys), spec.Seed)
	base := Config{SealRows: 1 << 14, MergeBits: 6}

	q1 := func(b *testing.B, s *Stream) {
		if r := s.Snapshot().CountByKey(); len(r) != 1<<16 {
			b.Fatalf("Q1 rows = %d", len(r))
		}
	}
	for _, bc := range []struct {
		name    string
		workers int
		cutoff  int
	}{
		{"serial", 1, 1 << 30},
		{"par=2", 2, 0},
		{"par=8", 8, 0},
	} {
		cfg := base
		cfg.QueryWorkers = bc.workers
		agg.SerialQueryCutoff = bc.cutoff
		b.Run("fold=cold/"+bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s := layeredStream(b, cfg, keys, vals, len(keys)/2)
				b.StartTimer()
				q1(b, s)
				b.StopTimer()
				if err := s.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("fold=warm/"+bc.name, func(b *testing.B) {
			s := layeredStream(b, cfg, keys, vals, len(keys)/2)
			q1(b, s) // fold + first scan outside the timer
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q1(b, s)
			}
			b.StopTimer()
			if err := s.Close(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

func benchName(shards int, seeded bool) string {
	name := "shards=" + string(rune('0'+shards))
	if seeded {
		return name + "/est=y"
	}
	return name + "/est=n"
}
