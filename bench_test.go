// Benchmarks mirroring the paper's evaluation: one benchmark function per
// figure/table (see DESIGN.md's per-experiment index) plus the ablation
// benchmarks for the design choices DESIGN.md calls out.
//
// Benchmark inputs are laptop-scale (the harness in cmd/aggbench
// regenerates the full grids at configurable sizes); each op aggregates a
// full dataset, so compare ns/op across sub-benchmarks, not against the
// paper's absolute numbers.
package memagg_test

import (
	"fmt"
	"testing"

	"memagg"
	"memagg/internal/agg"
	"memagg/internal/art"
	"memagg/internal/btree"
	"memagg/internal/dataset"
	"memagg/internal/hashtbl"
	"memagg/internal/judy"
	"memagg/internal/memsim"
	"memagg/internal/memuse"
	"memagg/internal/xsort"
)

const (
	benchSortN  = 1 << 20 // keys per sort-microbenchmark op
	benchQueryN = 1 << 18 // records per query op
	benchSeed   = 42
)

var benchCards = []int{1 << 10, 1 << 16} // the paper's low/high pair, scaled

// sink defeats dead-code elimination across benchmark loops.
var sink int

// --- Figure 2 ----------------------------------------------------------------

func BenchmarkFig2SortMicro(b *testing.B) {
	dists := []struct {
		name string
		gen  func() []uint64
	}{
		{"Random1to5", func() []uint64 { return dataset.Random(benchSortN, 1, 5, benchSeed) }},
		{"Random1to1M", func() []uint64 { return dataset.Random(benchSortN, 1, 1_000_000, benchSeed) }},
		{"Random1kto1M", func() []uint64 { return dataset.Random(benchSortN, 1_000, 1_000_000, benchSeed) }},
		{"Presorted", func() []uint64 { return dataset.Sequential(benchSortN) }},
		{"Reversed", func() []uint64 { return dataset.Reversed(benchSortN) }},
	}
	sorts := []struct {
		name string
		fn   func([]uint64)
	}{
		{"MSBRadix", xsort.RadixSortMSB},
		{"LSBRadix", xsort.RadixSortLSB},
		{"Introsort", xsort.Introsort},
		{"Spreadsort", xsort.Spreadsort},
		{"Quicksort", xsort.Quicksort},
	}
	for _, d := range dists {
		base := d.gen()
		buf := make([]uint64, len(base))
		for _, s := range sorts {
			b.Run(d.name+"/"+s.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					copy(buf, base)
					s.fn(buf)
				}
			})
		}
	}
}

// --- Figure 3 ----------------------------------------------------------------

func BenchmarkFig3StructMicro(b *testing.B) {
	keys := dataset.Random(benchQueryN, 1, 1_000_000, benchSeed)
	for _, e := range append(agg.Engines(), agg.Ttree()) {
		e := e
		b.Run(e.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sink = len(e.VectorCount(keys))
			}
		})
	}
}

// --- Figures 4, 5 --------------------------------------------------------------

func benchQueryGrid(b *testing.B, run func(e agg.Engine, keys, vals []uint64) int) {
	vals := dataset.Values(benchQueryN, benchSeed)
	for _, card := range benchCards {
		keys := dataset.Spec{Kind: dataset.Rseq, N: benchQueryN, Cardinality: card, Seed: benchSeed}.Keys()
		for _, e := range agg.Engines() {
			e := e
			b.Run(fmt.Sprintf("card%d/%s", card, e.Name()), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					sink = run(e, keys, vals)
				}
			})
		}
	}
}

func BenchmarkFig4Q1(b *testing.B) {
	benchQueryGrid(b, func(e agg.Engine, keys, _ []uint64) int {
		return len(e.VectorCount(keys))
	})
}

func BenchmarkFig5Q3(b *testing.B) {
	benchQueryGrid(b, func(e agg.Engine, keys, vals []uint64) int {
		return len(e.VectorMedian(keys, vals))
	})
}

// --- Figure 6 ----------------------------------------------------------------

func BenchmarkFig6MemSim(b *testing.B) {
	for _, card := range benchCards {
		keys := dataset.Spec{Kind: dataset.Rseq, N: benchQueryN, Cardinality: card, Seed: benchSeed}.Keys()
		for _, thp := range []bool{false, true} {
			paging := "4k"
			if thp {
				paging = "thp"
			}
			for _, m := range memsim.Models() {
				m, thp := m, thp
				b.Run(fmt.Sprintf("card%d/%s/%s", card, paging, m.Name()), func(b *testing.B) {
					b.ReportAllocs()
					var cache, tlb uint64
					for i := 0; i < b.N; i++ {
						h := memsim.NewSkylakeHierarchy()
						h.THP = thp
						m.RunQ1(h, keys)
						cache, tlb = h.CacheMisses(), h.TLBMisses()
					}
					b.ReportMetric(float64(cache), "cache-misses")
					b.ReportMetric(float64(tlb), "dtlb-misses")
				})
			}
		}
	}
}

// --- Tables 6, 7 ----------------------------------------------------------------

func benchMemTable(b *testing.B, op func(e agg.Engine, keys, vals []uint64) any) {
	keys := dataset.Spec{Kind: dataset.Rseq, N: benchQueryN, Cardinality: 1000, Seed: benchSeed}.Keys()
	vals := dataset.Values(benchQueryN, benchSeed)
	for _, e := range agg.Engines() {
		e := e
		b.Run(e.Name(), func(b *testing.B) {
			b.ReportAllocs()
			var u memuse.Usage
			for i := 0; i < b.N; i++ {
				u = memuse.Measure(func() any { return op(e, keys, vals) })
			}
			b.ReportMetric(memuse.MB(u.Retained), "retained-MB")
			b.ReportMetric(memuse.MB(u.Allocated), "allocated-MB")
		})
	}
}

func BenchmarkTab6MemQ1(b *testing.B) {
	benchMemTable(b, func(e agg.Engine, keys, _ []uint64) any {
		return e.VectorCount(keys)
	})
}

func BenchmarkTab7MemQ3(b *testing.B) {
	benchMemTable(b, func(e agg.Engine, keys, vals []uint64) any {
		return e.VectorMedian(keys, vals)
	})
}

// --- Figure 7 ----------------------------------------------------------------

func BenchmarkFig7Distrib(b *testing.B) {
	// Representative engines from each family keep the grid tractable; the
	// harness sweeps all ten.
	engines := []agg.Engine{agg.ART(), agg.Btree(), agg.HashLP(), agg.HashSC(), agg.Spreadsort()}
	for _, card := range benchCards {
		for _, kind := range dataset.Kinds {
			keys := dataset.Spec{Kind: kind, N: benchQueryN, Cardinality: card, Seed: benchSeed}.Keys()
			for _, e := range engines {
				e := e
				b.Run(fmt.Sprintf("card%d/%s/%s", card, kind, e.Name()), func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						sink = len(e.VectorCount(keys))
					}
				})
			}
		}
	}
}

// --- Figure 8 ----------------------------------------------------------------

func BenchmarkFig8Range(b *testing.B) {
	card := 1 << 16
	keys := dataset.Spec{Kind: dataset.Rseq, N: benchQueryN, Cardinality: card, Seed: benchSeed}.Keys()

	type tree interface {
		Upsert(uint64) *uint64
		Range(lo, hi uint64, fn func(uint64, *uint64) bool)
	}
	trees := []struct {
		name string
		mk   func() tree
	}{
		{"ART", func() tree { return art.New[uint64]() }},
		{"Judy", func() tree { return judy.New[uint64]() }},
		{"Btree", func() tree { return btree.New[uint64]() }},
	}
	for _, tr := range trees {
		tr := tr
		b.Run("Build/"+tr.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				t := tr.mk()
				for _, k := range keys {
					*t.Upsert(k)++
				}
			}
		})
		prebuilt := tr.mk()
		for _, k := range keys {
			*prebuilt.Upsert(k)++
		}
		for _, pct := range []int{25, 50, 75} {
			hi := uint64(card * pct / 100)
			b.Run(fmt.Sprintf("Search%d/%s", pct, tr.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					groups := 0
					prebuilt.Range(1, hi, func(uint64, *uint64) bool {
						groups++
						return true
					})
					sink = groups
				}
			})
		}
	}
}

// --- Figure 9 ----------------------------------------------------------------

func BenchmarkFig9Q6(b *testing.B) {
	for _, kind := range []dataset.Kind{dataset.Rseq, dataset.RseqShf, dataset.Zipf} {
		keys := dataset.Spec{Kind: kind, N: benchQueryN, Cardinality: 1 << 16, Seed: benchSeed}.Keys()
		for _, e := range agg.ScalarEngines() {
			e := e
			b.Run(fmt.Sprintf("%s/%s", kind, e.Name()), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					m, err := e.ScalarMedian(keys)
					if err != nil {
						b.Fatal(err)
					}
					sink = int(m)
				}
			})
		}
	}
}

// --- Figure 10 ----------------------------------------------------------------

func BenchmarkFig10ParSort(b *testing.B) {
	base := dataset.Random(benchSortN, 1, 1_000_000, benchSeed)
	buf := make([]uint64, len(base))
	algos := []struct {
		name string
		fn   func([]uint64, int)
	}{
		{"Sort_SS", xsort.SortSS},
		{"Sort_TBB", xsort.SortTBB},
		{"Sort_QSLB", xsort.SortQSLB},
		{"Sort_BI", xsort.SortBI},
	}
	for _, p := range []int{1, 2, 4, 8} {
		for _, alg := range algos {
			alg := alg
			b.Run(fmt.Sprintf("p%d/%s", p, alg.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					copy(buf, base)
					alg.fn(buf, p)
				}
			})
		}
	}
}

// --- Figure 11 ----------------------------------------------------------------

func BenchmarkFig11Scaling(b *testing.B) {
	keys := dataset.Spec{Kind: dataset.Rseq, N: benchQueryN, Cardinality: 1 << 10, Seed: benchSeed}.Keys()
	vals := dataset.Values(benchQueryN, benchSeed)
	for _, p := range []int{1, 2, 4, 8} {
		for _, e := range agg.ConcurrentEngines(p) {
			e := e
			b.Run(fmt.Sprintf("Q1/p%d/%s", p, e.Name()), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					sink = len(e.VectorCount(keys))
				}
			})
			b.Run(fmt.Sprintf("Q3/p%d/%s", p, e.Name()), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					sink = len(e.VectorMedian(keys, vals))
				}
			})
		}
	}
}

// --- radix-partition cardinality sweep (DESIGN.md parallel designs) -----------

// BenchmarkRadixCardinalitySweep races the three parallel aggregation
// designs — radix-partitioned (Hash_RX), private tables + merge
// (Hash_PLAT) and the shared structures (Hash_LC, Hash_TBBSC) — across
// group-by cardinality on Q1. The interesting read-out is the crossover:
// Hash_PLAT leads while its local tables stay cache-resident, Hash_RX
// takes over once cardinality pushes the other designs' tables out of
// cache. aggbench -exp rx regenerates the sweep at paper-scale N.
func BenchmarkRadixCardinalitySweep(b *testing.B) {
	const (
		n = 1 << 20
		p = 8
	)
	engines := []agg.Engine{
		agg.HashRX(p), agg.HashPLAT(p), agg.HashLC(p), agg.HashTBBSC(p),
	}
	for card := 1 << 6; card <= n; card <<= 4 {
		keys := dataset.Spec{Kind: dataset.RseqShf, N: n, Cardinality: card, Seed: benchSeed}.Keys()
		for _, e := range engines {
			e := e
			b.Run(fmt.Sprintf("card%d/%s", card, e.Name()), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					sink = len(e.VectorCount(keys))
				}
			})
		}
	}
}

// --- ablations (DESIGN.md section 4) -------------------------------------------

// BenchmarkAblationMaskVsMod isolates the paper's power-of-two AND-masking
// optimization for Hash_LP against the prime-modulo fallback.
func BenchmarkAblationMaskVsMod(b *testing.B) {
	keys := dataset.Spec{Kind: dataset.RseqShf, N: benchQueryN, Cardinality: 1 << 16, Seed: benchSeed}.Keys()
	b.Run("Mask", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			t := hashtbl.NewLinearProbe[uint64](len(keys))
			for _, k := range keys {
				*t.Upsert(k)++
			}
			sink = t.Len()
		}
	})
	b.Run("Mod", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			t := hashtbl.NewLinearProbeMod[uint64](len(keys))
			for _, k := range keys {
				*t.Upsert(k)++
			}
			sink = t.Len()
		}
	})
}

// BenchmarkAblationEarlyVsLate contrasts early aggregation (fold counts
// during the build, Section 3) with late aggregation (buffer all values,
// aggregate during iterate) for a distributive query where early
// aggregation is optional.
func BenchmarkAblationEarlyVsLate(b *testing.B) {
	keys := dataset.Spec{Kind: dataset.Zipf, N: benchQueryN, Cardinality: 1 << 10, Seed: benchSeed}.Keys()
	b.Run("Early", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			t := hashtbl.NewLinearProbe[uint64](len(keys))
			for _, k := range keys {
				*t.Upsert(k)++
			}
			var total uint64
			t.Iterate(func(_ uint64, v *uint64) bool { total += *v; return true })
			sink = int(total)
		}
	})
	b.Run("Late", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			t := hashtbl.NewLinearProbe[[]uint64](len(keys))
			for _, k := range keys {
				lst := t.Upsert(k)
				*lst = append(*lst, 1)
			}
			var total uint64
			t.Iterate(func(_ uint64, v *[]uint64) bool { total += uint64(len(*v)); return true })
			sink = int(total)
		}
	})
}

// BenchmarkAblationARTPathCompression measures what ART's compressed
// prefixes buy on small-range keys (long shared prefixes).
func BenchmarkAblationARTPathCompression(b *testing.B) {
	keys := dataset.Random(benchQueryN, 1, 1<<16, benchSeed)
	b.Run("PathCompression", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			t := art.New[uint64]()
			for _, k := range keys {
				*t.Upsert(k)++
			}
			sink = t.Len()
		}
	})
	b.Run("NoPathCompression", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			t := art.NewNoPathCompression[uint64]()
			for _, k := range keys {
				*t.Upsert(k)++
			}
			sink = t.Len()
		}
	})
}

// BenchmarkAblationPresortART tests the paper's Section 5.5 suggestion:
// presorting shuffled input before building the ART aggregate.
func BenchmarkAblationPresortART(b *testing.B) {
	keys := dataset.Spec{Kind: dataset.RseqShf, N: benchQueryN, Cardinality: 1 << 16, Seed: benchSeed}.Keys()
	b.Run("Shuffled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			t := art.New[uint64]()
			for _, k := range keys {
				*t.Upsert(k)++
			}
			sink = t.Len()
		}
	})
	b.Run("PresortThenBuild", func(b *testing.B) {
		b.ReportAllocs()
		buf := make([]uint64, len(keys))
		for i := 0; i < b.N; i++ {
			copy(buf, keys)
			xsort.Spreadsort(buf)
			t := art.New[uint64]()
			for _, k := range buf {
				*t.Upsert(k)++
			}
			sink = t.Len()
		}
	})
}

// BenchmarkAblationChainPool contrasts per-node allocation with pooled
// arena allocation for the separate-chaining table.
func BenchmarkAblationChainPool(b *testing.B) {
	keys := dataset.Spec{Kind: dataset.RseqShf, N: benchQueryN, Cardinality: 1 << 16, Seed: benchSeed}.Keys()
	b.Run("PerNode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			t := hashtbl.NewChained[uint64](len(keys))
			for _, k := range keys {
				*t.Upsert(k)++
			}
			sink = t.Len()
		}
	})
	b.Run("Pooled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			t := hashtbl.NewChainedPooled[uint64](len(keys))
			for _, k := range keys {
				*t.Upsert(k)++
			}
			sink = t.Len()
		}
	})
}

// --- public API overhead -------------------------------------------------------

func BenchmarkPublicAPICountByKey(b *testing.B) {
	keys, err := memagg.Generate(memagg.Rseq, benchQueryN, 1<<10, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	a, err := memagg.New(memagg.HashLP, memagg.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = len(a.CountByKey(keys))
	}
}

// --- string-key extension -------------------------------------------------------

func BenchmarkStringBackends(b *testing.B) {
	rng := dataset.NewRNG(benchSeed)
	z := dataset.NewZipfSampler(1<<14, 0.5)
	keys := make([]string, benchQueryN)
	for i := range keys {
		keys[i] = fmt.Sprintf("tok-%05d", z.Sample(rng))
	}
	for _, bk := range memagg.StringBackends() {
		bk := bk
		a, err := memagg.NewStrings(bk)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(string(bk), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sink = len(a.CountByKey(keys))
			}
		})
	}
}

// --- allocator dimension (DESIGN.md D6) ----------------------------------------

// BenchmarkHolisticAlloc sweeps the holistic Q3 across group-by
// cardinality under both allocator settings. allocs/op is the headline
// metric (every sub-benchmark reports it): under go-runtime it scales with
// the group count (each group's value list grows by append), under the
// arena it stays flat — a handful of pooled-chunk allocations regardless
// of cardinality. One untimed warm-up run puts the arena rows in the
// reset-and-reuse steady state.
func BenchmarkHolisticAlloc(b *testing.B) {
	vals := dataset.Values(benchQueryN, benchSeed)
	for _, card := range []int{1 << 10, 1 << 14, 1 << 17} {
		keys := dataset.Spec{Kind: dataset.RseqShf, N: benchQueryN, Cardinality: card, Seed: benchSeed}.Keys()
		for _, al := range agg.Allocators() {
			e := agg.WithAllocator(agg.HashLP(), al)
			b.Run(fmt.Sprintf("card%d/%s", card, al), func(b *testing.B) {
				b.ReportAllocs()
				e.VectorHolistic(keys, vals, agg.MedianFunc)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					sink = len(e.VectorHolistic(keys, vals, agg.MedianFunc))
				}
			})
		}
	}
}

// BenchmarkAblationBulkLoadVsUpserts contrasts O(n) bottom-up bulk loading
// of the B+tree from sorted input with top-down upserts — the tree-side
// counterpart of the paper's presort observation (Section 5.5).
func BenchmarkAblationBulkLoadVsUpserts(b *testing.B) {
	n := benchQueryN
	entries := make([]btree.Entry[uint64], n)
	keys := make([]uint64, n)
	for i := range entries {
		k := uint64(i*2 + 1)
		entries[i] = btree.Entry[uint64]{Key: k, Val: 1}
		keys[i] = k
	}
	b.Run("Upserts", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			t := btree.New[uint64]()
			for _, k := range keys {
				*t.Upsert(k) = 1
			}
			sink = t.Len()
		}
	})
	b.Run("BulkLoad", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sink = btree.BulkLoad(entries).Len()
		}
	})
}
