package agg

import (
	"testing"

	"memagg/internal/dataset"
)

// TestQ3AllocBudget is the allocs-regression gate wired into scripts/ci.sh:
// the arena configuration of the reference engine must keep the holistic Q3
// hot path near allocation-free in the steady state (pools warmed), and the
// go-runtime configuration must demonstrate the gap the arena exists to
// close. Budgets are deliberately loose (~2× the measured values) so the
// test flags an architectural regression — a per-row or per-group
// allocation creeping back into the build loop — not allocator noise.
func TestQ3AllocBudget(t *testing.T) {
	const (
		n    = 1 << 16
		card = 1 << 12

		// arenaBudget bounds allocs/op for the warmed arena engine. The
		// steady state measures ~10 (the result rows and table backing
		// arrays; the value lists and scratch all come from the pooled
		// arena).
		arenaBudget = 64

		// minRatio is the go-runtime : arena allocs ratio the design
		// claims. Measured ~4000× (one alloc per list growth per group
		// vs near-zero); 10× is the acceptance floor.
		minRatio = 10
	)
	keys := dataset.Spec{Kind: dataset.RseqShf, N: n, Cardinality: card, Seed: 7}.Keys()
	vals := dataset.Values(n, 7)

	arenaEng := WithAllocator(HashLP(), AllocArena)
	goEng := HashLP()
	arenaEng.VectorHolistic(keys, vals, MedianFunc) // warm the pools

	arenaAllocs := testing.AllocsPerRun(3, func() {
		arenaEng.VectorHolistic(keys, vals, MedianFunc)
	})
	goAllocs := testing.AllocsPerRun(3, func() {
		goEng.VectorHolistic(keys, vals, MedianFunc)
	})
	t.Logf("Q3 allocs/op (n=%d, card=%d): go-runtime=%.0f arena=%.0f ratio=%.0fx",
		n, card, goAllocs, arenaAllocs, goAllocs/max(arenaAllocs, 1))

	if arenaAllocs > arenaBudget {
		t.Errorf("arena Q3 allocs/op = %.0f, budget %d: an allocation crept back into the hot path", arenaAllocs, arenaBudget)
	}
	if goAllocs < minRatio*max(arenaAllocs, 1) {
		t.Errorf("go-runtime/arena allocs ratio = %.1fx, want >= %dx (go=%.0f arena=%.0f)",
			goAllocs/max(arenaAllocs, 1), minRatio, goAllocs, arenaAllocs)
	}
}
