package agg

import (
	"testing"

	"memagg/internal/dataset"
)

// glbParallelSpecs sit above glbSerialCutoff so the morsel-driven shared-
// table path runs, in skewed and uniform shapes (the heavy-hitter kinds
// concentrate atomic traffic on a few slots — the worst case for the
// lock-free lanes).
func glbParallelSpecs() []dataset.Spec {
	n := 3 * glbSerialCutoff
	return []dataset.Spec{
		{Kind: dataset.RseqShf, N: n, Cardinality: 1 << 7, Seed: 3},
		{Kind: dataset.RseqShf, N: n, Cardinality: 1 << 14, Seed: 4},
		{Kind: dataset.HhitShf, N: n, Cardinality: 1 << 10, Seed: 5},
		{Kind: dataset.Zipf, N: n, Cardinality: 1 << 10, Seed: 6},
	}
}

// TestGLBParallelReduceMatchesSerial pins the morsel-driven path of every
// distributive kernel (COUNT/SUM/MIN/MAX, plus AVG through VectorAvg)
// against the engine's own serial fallback on inputs above the cutoff:
// the lock-free lane folds must agree with the single-threaded reference
// exactly, group for group. Runs under -race in scripts/ci.sh.
func TestGLBParallelReduceMatchesSerial(t *testing.T) {
	for _, spec := range glbParallelSpecs() {
		keys := spec.Keys()
		vals := dataset.Values(len(keys), spec.Seed)
		par := HashGLB(8)
		ser := HashGLB(1) // workers()==1 forces the serial fallback
		for _, op := range []ReduceOp{OpCount, OpSum, OpMin, OpMax} {
			want := refReduce(keys, vals, op)
			got := par.VectorReduce(keys, vals, op)
			if len(got) != len(want) {
				t.Fatalf("%v/%s: %d groups want %d", spec, op, len(got), len(want))
			}
			for _, g := range got {
				if want[g.Key] != g.Value {
					t.Fatalf("%v/%s: key %d = %d want %d", spec, op, g.Key, g.Value, want[g.Key])
				}
			}
		}
		// AVG: parallel and serial must agree bit for bit — both divide
		// the same exact uint64 sums once.
		wantAvg := map[uint64]float64{}
		for _, g := range ser.(Engine).VectorAvg(keys, vals) {
			wantAvg[g.Key] = g.Value
		}
		for _, g := range par.(Engine).VectorAvg(keys, vals) {
			if wantAvg[g.Key] != g.Value {
				t.Fatalf("%v/AVG: key %d = %v want %v", spec, g.Key, g.Value, wantAvg[g.Key])
			}
		}
	}
}

// TestGLBParallelShortValsAndZeroKey pins the two edge paths of the morsel
// loop: a values column shorter than keys (the tail zero-extends through
// valueAt, and whole blocks past len(vals) take the row path) and key 0
// (the table's dedicated zero cell).
func TestGLBParallelShortValsAndZeroKey(t *testing.T) {
	n := 2 * glbSerialCutoff
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(i % 97) // includes key 0
	}
	vals := dataset.Values(n/2, 11) // half the column missing
	par := HashGLB(8)
	for _, op := range []ReduceOp{OpSum, OpMin, OpMax} {
		want := refReduce(keys, vals, op)
		got := par.VectorReduce(keys, vals, op)
		if len(got) != len(want) {
			t.Fatalf("%s: %d groups want %d", op, len(got), len(want))
		}
		for _, g := range got {
			if want[g.Key] != g.Value {
				t.Fatalf("%s: key %d = %d want %d", op, g.Key, g.Value, want[g.Key])
			}
		}
	}
}
