package stream

import (
	"fmt"
	"sync"
	"testing"

	"memagg/internal/agg"
	"memagg/internal/arena"
	"memagg/internal/dataset"
)

// BenchmarkStreamIngest measures end-to-end ingest throughput (Append →
// seal → merge, flushed at the end) on a 1M-row / 100k-group workload, with
// as many producer goroutines as shards. b.N counts ROWS; the rows/s metric
// is the headline number for EXPERIMENTS.md.
//
// bits is the stream's MergeBits. 6 is the default and maxDeltaBits, the
// largest fan-out a table delta is built at; 12 is the partitioner's
// maximum, 4,096 base partitions, where every delta is a run scattered
// at 12 and every merge folds run partition q into base partition q.
//
// The kind=*/groups=* cells are the sweep that fixes runCutoff (see
// benchDeltaKinds).
//
//	go test ./internal/stream/ -bench StreamIngest -benchtime 1000000x
func BenchmarkStreamIngest(b *testing.B) {
	benchDeltaKinds(b)
	const groups, batchLen = 100_000, 4096
	spec := dataset.Spec{Kind: dataset.RseqShf, N: 1_000_000, Cardinality: groups, Seed: 71}
	keys := spec.Keys()
	vals := dataset.Values(len(keys), spec.Seed)

	for _, cfg := range []struct {
		shards int
		bits   int
	}{{1, 6}, {4, 6}, {8, 6}, {1, 12}} {
		b.Run(fmt.Sprintf("shards=%d/bits=%d", cfg.shards, cfg.bits), func(b *testing.B) {
			shards := cfg.shards
			s := New(Config{Shards: shards, SealRows: 1 << 15, MergeBits: cfg.bits})
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
		cfg.queryWorkers = bc.workers
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

// benchDeltaKinds is the single-threaded sweep behind runCutoff: per
// 32 Ki-row delta, the work a shard and the merger do for each delta
// kind, on uniform keys over 1 Ki to 1 Mi groups, into a 64-partition
// base that already holds every group and folds in place (the merger's
// steady state). kind=table absorbs the rows into a fresh seeded table
// delta and folds its partitions q into q; kind=run scatters the rows
// into a run and folds them row by row. b.N counts rows; ns/row is the
// cell's figure.
func benchDeltaKinds(b *testing.B) {
	const seal, bits = 1 << 15, 6
	for _, groups := range []int{1 << 10, 1 << 12, 1 << 14, 1 << 16, 1 << 20} {
		spec := dataset.Spec{Kind: dataset.RseqShf, N: max(1<<20, 2*groups), Cardinality: groups, Seed: 17}
		keys := spec.Keys()
		vals := dataset.Values(len(keys), spec.Seed)
		for _, kind := range []string{"table", "run"} {
			b.Run(fmt.Sprintf("kind=%s/groups=%dKi", kind, groups>>10), func(b *testing.B) {
				base := make([]agg.Table, 1<<bits)
				agg.AbsorbParts(base, nil, nil, keys, vals, false)
				own := make([]bool, len(base))
				for q := range own {
					own[q] = true
				}
				var seed []int
				off := 0
				b.ResetTimer()
				for n := 0; n < b.N; n += seal {
					if off+seal > len(keys) {
						off = 0
					}
					k, v := keys[off:off+seal], vals[off:off+seal]
					off += seal
					var src agg.Source
					if kind == "table" {
						src.Parts = make([]agg.Table, 1<<bits)
						agg.AbsorbParts(src.Parts, arena.New(), seed, k, v, false)
						seed = make([]int, len(src.Parts))
						for q, t := range src.Parts {
							seed[q] = t.Len()
						}
					} else {
						src.Rows = agg.ScatterRows([][]uint64{k}, [][]uint64{v}, bits, 1)
					}
					base, _ = agg.Fold(base, []agg.Source{src}, own, false, 1)
				}
				b.StopTimer()
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64((b.N+seal-1)/seal*seal), "ns/row")
			})
		}
	}
}
