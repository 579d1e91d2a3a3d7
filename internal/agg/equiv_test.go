package agg

import (
	"sort"
	"testing"

	"memagg/internal/dataset"
)

// equivEngines is the matrix for the randomized cross-engine equivalence
// gate: every serial engine, Ttree, the concurrent engines at several
// explicit thread counts, the partitioned extension engines and the
// hybrid — each of the allocator-aware engines additionally in its arena
// configuration (Dimension 6 must not change any result).
func equivEngines() []Engine {
	es := Engines()
	es = append(es, Ttree())
	for _, p := range []int{1, 2, 5, 8} {
		es = append(es, ConcurrentEngines(p)...)
		es = append(es, HashPLAT(p))
	}
	es = append(es, Adaptive())
	for _, e := range append(Engines(), Ttree(), HashRX(4), HashGLB(4), Adaptive()) {
		if a := WithAllocator(e, AllocArena); EngineAllocator(a) == AllocArena {
			es = append(es, a)
		}
	}
	return es
}

// equivSpecs covers both sides of Hash_RX's serial cutoff (1<<15) with a
// uniform and a heavy-hitter skewed distribution each, at low and high
// group-by cardinality.
func equivSpecs() []dataset.Spec {
	small, large := rxSerialCutoff/16, 3*rxSerialCutoff
	return []dataset.Spec{
		{Kind: dataset.RseqShf, N: small, Cardinality: 97, Seed: 41},
		{Kind: dataset.Zipf, N: small, Cardinality: 500, Seed: 42},
		{Kind: dataset.RseqShf, N: large, Cardinality: 120, Seed: 43},
		{Kind: dataset.RseqShf, N: large, Cardinality: 40000, Seed: 44},
		{Kind: dataset.Zipf, N: large, Cardinality: 20000, Seed: 45},
		{Kind: dataset.HhitShf, N: large, Cardinality: 5000, Seed: 46},
	}
}

func sortedQ1(rows []GroupCount) []GroupCount {
	out := append([]GroupCount(nil), rows...)
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

func sortedQF(rows []GroupFloat) []GroupFloat {
	out := append([]GroupFloat(nil), rows...)
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// TestEnginesEquivalentToReference is the correctness gate for the full
// engine matrix: on randomized datasets, every engine's key-sorted Q1, Q2
// and Q3 output must match the serial Hash_LP reference EXACTLY — Q2
// included, because every engine computes avg as one float64 division of
// exact uint64 sums.
// TestHolisticEquivalentAcrossAllocators runs the generalized holistic
// operators (median and 90th-percentile quantile) with both allocator
// settings on every allocator-aware engine: the arena's chunked value
// lists must reproduce the go-runtime []uint64 buffering bit for bit,
// including repeated runs against the same engine value (reset-and-reuse
// must not leak state between queries).
func TestHolisticEquivalentAcrossAllocators(t *testing.T) {
	q90 := QuantileFunc(0.9)
	for _, spec := range equivSpecs() {
		keys := spec.Keys()
		vals := dataset.Values(len(keys), spec.Seed)
		ref := HashLP()
		wantMed := sortedQF(ref.VectorHolistic(keys, vals, MedianFunc))
		wantQ90 := sortedQF(ref.VectorHolistic(keys, vals, q90))
		for _, base := range []Engine{HashLP(), HashSC(), HashSparse(), HashDense(),
			ART(), Judy(), Btree(), Introsort(), Spreadsort(), HashRX(4), HashGLB(4), Adaptive()} {
			for _, al := range Allocators() {
				e := WithAllocator(base, al)
				for round := 0; round < 2; round++ { // twice: exercise pool reuse
					gotMed := sortedQF(e.VectorHolistic(keys, vals, MedianFunc))
					checkQF(t, e.Name()+"/"+al.String()+"/median", spec, gotMed, wantMed)
					gotQ90 := sortedQF(e.VectorHolistic(keys, vals, q90))
					checkQF(t, e.Name()+"/"+al.String()+"/q90", spec, gotQ90, wantQ90)
				}
			}
		}
	}
}

func checkQF(t *testing.T, label string, spec dataset.Spec, got, want []GroupFloat) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s %v: %d groups want %d", label, spec, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s %v: row[%d] = %+v want %+v", label, spec, i, got[i], want[i])
		}
	}
}

func TestEnginesEquivalentToReference(t *testing.T) {
	ref := HashLP()
	for _, spec := range equivSpecs() {
		keys := spec.Keys()
		vals := dataset.Values(len(keys), spec.Seed)
		wantQ1 := sortedQ1(ref.VectorCount(keys))
		wantQ2 := sortedQF(ref.VectorAvg(keys, vals))
		wantQ3 := sortedQF(ref.VectorMedian(keys, vals))
		for _, e := range equivEngines() {
			gotQ1 := sortedQ1(e.VectorCount(keys))
			if len(gotQ1) != len(wantQ1) {
				t.Fatalf("%s %v: Q1 %d groups want %d", e.Name(), spec, len(gotQ1), len(wantQ1))
			}
			for i := range gotQ1 {
				if gotQ1[i] != wantQ1[i] {
					t.Fatalf("%s %v: Q1[%d] = %+v want %+v", e.Name(), spec, i, gotQ1[i], wantQ1[i])
				}
			}
			gotQ2 := sortedQF(e.VectorAvg(keys, vals))
			if len(gotQ2) != len(wantQ2) {
				t.Fatalf("%s %v: Q2 %d groups want %d", e.Name(), spec, len(gotQ2), len(wantQ2))
			}
			for i := range gotQ2 {
				if gotQ2[i] != wantQ2[i] {
					t.Fatalf("%s %v: Q2[%d] = %+v want %+v", e.Name(), spec, i, gotQ2[i], wantQ2[i])
				}
			}
			gotQ3 := sortedQF(e.VectorMedian(keys, vals))
			if len(gotQ3) != len(wantQ3) {
				t.Fatalf("%s %v: Q3 %d groups want %d", e.Name(), spec, len(gotQ3), len(wantQ3))
			}
			for i := range gotQ3 {
				if gotQ3[i] != wantQ3[i] {
					t.Fatalf("%s %v: Q3[%d] = %+v want %+v", e.Name(), spec, i, gotQ3[i], wantQ3[i])
				}
			}
		}
	}
}
