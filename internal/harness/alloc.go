package harness

import (
	"fmt"
	"runtime"

	"memagg/internal/agg"
	"memagg/internal/dataset"
)

// ExtAlloc charts the allocator dimension (the paper's Dimension 6): the
// same engines running the same queries under the go-runtime allocator and
// the arena layer (internal/arena). The paper's §6 finding is that the
// allocator alone swings aggregation throughput by large factors; here the
// contrast is sharpest on the holistic Q3, whose per-group value buffers
// dominate the allocation profile — under the arena they collapse into a
// handful of pooled chunk allocations, and in the steady state (arenas are
// reset and reused across queries) into almost none.
//
// Each cell reports wall time plus the allocation profile of one query
// execution (heap objects allocated, MB allocated, GC cycles triggered),
// measured as runtime.MemStats deltas around the run. One untimed warm-up
// run per cell populates the arena/slice pools so the arena rows show the
// reuse steady state rather than first-touch chunk faults.
func ExtAlloc(cfg Config) error {
	warm()
	type mkEngine struct {
		name string
		mk   func() agg.Engine
	}
	engines := []mkEngine{
		{"Hash_LP", agg.HashLP},
		{"Hash_SC", agg.HashSC},
		{"ART", agg.ART},
		{"Btree", agg.Btree},
		{"Spreadsort", agg.Spreadsort},
		{"Hash_RX", func() agg.Engine { return agg.HashRX(maxThreads(cfg)) }},
	}

	vals := dataset.Values(cfg.N, cfg.Seed)
	low, high := cfg.lowHighCards()
	tw := newTable(cfg.Out, "query", "cardinality", "algorithm", "allocator",
		"time_ms", "allocs", "alloc_mb", "gcs")

	cell := func(query string, card int, keys []uint64, e agg.Engine, run func()) {
		run() // warm-up: populates pools, sizes arenas
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		el := timeIt(run)
		runtime.ReadMemStats(&m1)
		fmt.Fprintf(tw, "%s\t%d\t%s\t%s\t%s\t%d\t%.1f\t%d\n",
			query, card, e.Name(), agg.EngineAllocator(e), ms(el),
			m1.Mallocs-m0.Mallocs,
			float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20),
			m1.NumGC-m0.NumGC)
	}

	// Q3 (holistic MEDIAN) — the allocation-bound query — at the low/high
	// cardinality pair.
	for _, card := range []int{low, high} {
		keys := keysFor(cfg, dataset.RseqShf, card)
		for _, me := range engines {
			for _, al := range agg.Allocators() {
				e := agg.WithAllocator(me.mk(), al)
				cell("Q3", card, keys, e, func() { e.VectorHolistic(keys, vals, agg.MedianFunc) })
			}
		}
	}

	// Q1 (COUNT) at high cardinality: distributive, so the allocator moves
	// little — the contrast row that shows the effect is holistic-specific.
	keys := keysFor(cfg, dataset.RseqShf, high)
	for _, me := range engines {
		for _, al := range agg.Allocators() {
			e := agg.WithAllocator(me.mk(), al)
			cell("Q1", high, keys, e, func() { e.VectorCount(keys) })
		}
	}
	return tw.Flush()
}
