package agg

import (
	"testing"

	"memagg/internal/dataset"
)

// TestGLBAllocBudget mirrors TestQ3AllocBudget for the parallel holistic
// path of Hash_GLB (wired into scripts/ci.sh): the arena configuration's
// buffer-and-replay merge must stay within a fixed per-query allocation
// budget — the shared table, the per-worker buffers and the slot-list
// array, NOT a per-row or per-group term — while the go-runtime
// configuration pays the per-group list growth the arena exists to
// avoid. Budgets are deliberately loose (~2× measured) so the test flags
// an architectural regression, not allocator noise.
func TestGLBAllocBudget(t *testing.T) {
	const (
		n    = 1 << 16 // above glbSerialCutoff: the morsel-driven path runs
		card = 1 << 12

		// arenaBudget bounds allocs/op for the warmed arena engine.
		// Measured ~45: table arrays, per-worker buffer growth, the
		// slot-list array, goroutine/result plumbing — all O(workers +
		// table), none O(rows) or O(groups).
		arenaBudget = 128

		// minRatio is the go-runtime : arena floor. Go-runtime pays per-
		// group list growth (measured ~450× the arena figure); 10× is the
		// acceptance floor.
		minRatio = 10
	)
	keys := dataset.Spec{Kind: dataset.RseqShf, N: n, Cardinality: card, Seed: 7}.Keys()
	vals := dataset.Values(n, 7)

	arenaEng := WithAllocator(HashGLB(4), AllocArena)
	goEng := HashGLB(4)
	arenaEng.VectorHolistic(keys, vals, MedianFunc) // warm the pools

	arenaAllocs := testing.AllocsPerRun(3, func() {
		arenaEng.VectorHolistic(keys, vals, MedianFunc)
	})
	goAllocs := testing.AllocsPerRun(3, func() {
		goEng.VectorHolistic(keys, vals, MedianFunc)
	})
	t.Logf("GLB Q3 allocs/op (n=%d, card=%d): go-runtime=%.0f arena=%.0f ratio=%.0fx",
		n, card, goAllocs, arenaAllocs, goAllocs/max(arenaAllocs, 1))

	if arenaAllocs > arenaBudget {
		t.Errorf("arena GLB Q3 allocs/op = %.0f, budget %d: an allocation crept back into the hot path", arenaAllocs, arenaBudget)
	}
	if goAllocs < minRatio*max(arenaAllocs, 1) {
		t.Errorf("go-runtime/arena allocs ratio = %.1fx, want >= %dx (go=%.0f arena=%.0f)",
			goAllocs/max(arenaAllocs, 1), minRatio, goAllocs, arenaAllocs)
	}
}
