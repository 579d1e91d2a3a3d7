package agg

import (
	"errors"
	"math"
	"sort"
	"testing"

	"memagg/internal/dataset"
)

// refVectorCount computes Q1 with a plain Go map as the reference model.
func refVectorCount(keys []uint64) map[uint64]uint64 {
	m := map[uint64]uint64{}
	for _, k := range keys {
		m[k]++
	}
	return m
}

func refVectorAvg(keys, vals []uint64) map[uint64]float64 {
	sum := map[uint64]uint64{}
	cnt := map[uint64]uint64{}
	for i, k := range keys {
		sum[k] += vals[i]
		cnt[k]++
	}
	out := map[uint64]float64{}
	for k := range cnt {
		out[k] = float64(sum[k]) / float64(cnt[k])
	}
	return out
}

func refVectorMedian(keys, vals []uint64) map[uint64]float64 {
	groups := map[uint64][]uint64{}
	for i, k := range keys {
		groups[k] = append(groups[k], vals[i])
	}
	out := map[uint64]float64{}
	for k, g := range groups {
		sort.Slice(g, func(i, j int) bool { return g[i] < g[j] })
		out[k] = MedianSorted(g)
	}
	return out
}

func refScalarMedian(keys []uint64) float64 {
	s := append([]uint64(nil), keys...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return MedianSorted(s)
}

// allEngines returns every engine (serial + Ttree + concurrent at 4
// threads) so the equivalence tests cover the full matrix.
func allEngines() []Engine {
	es := Engines()
	es = append(es, Ttree())
	es = append(es, ConcurrentEngines(4)...)
	return es
}

func testData(t *testing.T) (keys, vals []uint64) {
	t.Helper()
	keys = dataset.Spec{Kind: dataset.Zipf, N: 30000, Cardinality: 700, Seed: 21}.Keys()
	vals = dataset.Values(len(keys), 21)
	return keys, vals
}

// TestAllEnginesAgreeOnQ1 is the central integration test: every algorithm
// must produce the identical Q1 result set.
func TestAllEnginesAgreeOnQ1(t *testing.T) {
	for _, kind := range dataset.Kinds {
		keys := dataset.Spec{Kind: kind, N: 20000, Cardinality: 300, Seed: 9}.Keys()
		want := refVectorCount(keys)
		for _, e := range allEngines() {
			got := e.VectorCount(keys)
			if len(got) != len(want) {
				t.Fatalf("%s/%v: %d groups want %d", e.Name(), kind, len(got), len(want))
			}
			for _, g := range got {
				if want[g.Key] != g.Count {
					t.Fatalf("%s/%v: key %d count %d want %d",
						e.Name(), kind, g.Key, g.Count, want[g.Key])
				}
			}
			assertOrderedIfOrdered(t, e, got)
		}
	}
}

// assertOrderedIfOrdered verifies sort/tree engines return key-ascending
// results (their documented natural order).
func assertOrderedIfOrdered(t *testing.T, e Engine, got []GroupCount) {
	t.Helper()
	if e.Category() == HashBased {
		return
	}
	for i := 1; i < len(got); i++ {
		if got[i].Key <= got[i-1].Key {
			t.Fatalf("%s: result not key-ordered", e.Name())
		}
	}
}

func TestAllEnginesAgreeOnQ2(t *testing.T) {
	keys, vals := testData(t)
	want := refVectorAvg(keys, vals)
	for _, e := range allEngines() {
		got := e.VectorAvg(keys, vals)
		if len(got) != len(want) {
			t.Fatalf("%s: %d groups want %d", e.Name(), len(got), len(want))
		}
		for _, g := range got {
			if math.Abs(g.Value-want[g.Key]) > 1e-9 {
				t.Fatalf("%s: key %d avg %v want %v", e.Name(), g.Key, g.Value, want[g.Key])
			}
		}
	}
}

func TestAllEnginesAgreeOnQ3(t *testing.T) {
	keys, vals := testData(t)
	want := refVectorMedian(keys, vals)
	for _, e := range allEngines() {
		got := e.VectorMedian(keys, vals)
		if len(got) != len(want) {
			t.Fatalf("%s: %d groups want %d", e.Name(), len(got), len(want))
		}
		for _, g := range got {
			if g.Value != want[g.Key] {
				t.Fatalf("%s: key %d median %v want %v", e.Name(), g.Key, g.Value, want[g.Key])
			}
		}
	}
}

func TestScalarQueries(t *testing.T) {
	keys, vals := testData(t)
	if ScalarCount(keys) != uint64(len(keys)) {
		t.Fatal("Q4")
	}
	if math.Abs(ScalarAvg(vals)-Avg(vals)) > 1e-12 {
		t.Fatal("Q5")
	}
	want := refScalarMedian(keys)
	for _, e := range allEngines() {
		got, err := e.ScalarMedian(keys)
		if errors.Is(err, ErrUnsupported) {
			if e.Category() != HashBased {
				t.Fatalf("%s: non-hash engine rejected Q6", e.Name())
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		if got != want {
			t.Fatalf("%s: Q6 = %v want %v", e.Name(), got, want)
		}
	}
}

func TestScalarMedianEvenOdd(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 999, 1000} {
		keys := dataset.Random(n, 1, 50, uint64(n))
		want := refScalarMedian(keys)
		for _, e := range ScalarEngines() {
			got, err := e.ScalarMedian(keys)
			if err != nil {
				t.Fatalf("%s: %v", e.Name(), err)
			}
			if got != want {
				t.Fatalf("%s n=%d: Q6 = %v want %v", e.Name(), n, got, want)
			}
		}
	}
}

func TestVectorCountRange(t *testing.T) {
	keys, _ := testData(t)
	lo, hi := uint64(100), uint64(400)
	want := map[uint64]uint64{}
	for k, c := range refVectorCount(keys) {
		if k >= lo && k <= hi {
			want[k] = c
		}
	}
	for _, e := range allEngines() {
		got, err := e.VectorCountRange(keys, lo, hi)
		if errors.Is(err, ErrUnsupported) {
			if e.Category() != HashBased {
				t.Fatalf("%s: non-hash engine rejected Q7", e.Name())
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d groups want %d", e.Name(), len(got), len(want))
		}
		for _, g := range got {
			if g.Key < lo || g.Key > hi {
				t.Fatalf("%s: key %d outside range", e.Name(), g.Key)
			}
			if want[g.Key] != g.Count {
				t.Fatalf("%s: key %d count %d want %d", e.Name(), g.Key, g.Count, want[g.Key])
			}
		}
	}
}

func TestRangeEdgeCases(t *testing.T) {
	keys := []uint64{10, 20, 30, 20}
	for _, e := range TreeEngines() {
		// Empty range (lo > hi) yields nil, nil.
		got, err := e.VectorCountRange(keys, 5, 1)
		if err != nil || got != nil {
			t.Fatalf("%s: inverted range = %v, %v", e.Name(), got, err)
		}
		// Point range.
		got, err = e.VectorCountRange(keys, 20, 20)
		if err != nil || len(got) != 1 || got[0].Count != 2 {
			t.Fatalf("%s: point range = %v, %v", e.Name(), got, err)
		}
	}
}

func TestEmptyInputs(t *testing.T) {
	for _, e := range allEngines() {
		if got := e.VectorCount(nil); len(got) != 0 {
			t.Fatalf("%s: Q1 on empty = %v", e.Name(), got)
		}
		if got := e.VectorMedian(nil, nil); len(got) != 0 {
			t.Fatalf("%s: Q3 on empty = %v", e.Name(), got)
		}
		if got, err := e.ScalarMedian(nil); err == nil && got != 0 {
			t.Fatalf("%s: Q6 on empty = %v", e.Name(), got)
		}
	}
}

func TestSingleGroup(t *testing.T) {
	keys := make([]uint64, 1000)
	for i := range keys {
		keys[i] = 42
	}
	for _, e := range allEngines() {
		got := e.VectorCount(keys)
		if len(got) != 1 || got[0].Key != 42 || got[0].Count != 1000 {
			t.Fatalf("%s: single group = %v", e.Name(), got)
		}
	}
}

func TestAllDistinctKeys(t *testing.T) {
	keys := dataset.Sequential(5000)
	for _, e := range allEngines() {
		got := e.VectorCount(keys)
		if len(got) != 5000 {
			t.Fatalf("%s: %d groups want 5000", e.Name(), len(got))
		}
		for _, g := range got {
			if g.Count != 1 {
				t.Fatalf("%s: key %d count %d want 1", e.Name(), g.Key, g.Count)
			}
		}
	}
}

func TestInputNotMutated(t *testing.T) {
	keys, vals := testData(t)
	kcopy := append([]uint64(nil), keys...)
	vcopy := append([]uint64(nil), vals...)
	for _, e := range allEngines() {
		e.VectorCount(keys)
		e.VectorMedian(keys, vals)
		e.ScalarMedian(keys)
	}
	for i := range keys {
		if keys[i] != kcopy[i] || vals[i] != vcopy[i] {
			t.Fatal("an engine mutated its input")
		}
	}
}

func TestByName(t *testing.T) {
	for _, want := range []string{"Hash_LP", "ART", "Spreadsort", "Ttree"} {
		e, err := ByName(want)
		if err != nil || e.Name() != want {
			t.Fatalf("ByName(%q) = %v, %v", want, e, err)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("ByName accepted garbage")
	}
}

func TestRegistryShape(t *testing.T) {
	if n := len(Engines()); n != 10 {
		t.Fatalf("Engines() has %d entries, want the paper's 10", n)
	}
	if n := len(ConcurrentEngines(2)); n != 6 {
		t.Fatalf("ConcurrentEngines() has %d entries, want the Table 8 four plus Hash_RX and Hash_GLB", n)
	}
	names := map[string]bool{}
	for _, e := range Engines() {
		if names[e.Name()] {
			t.Fatalf("duplicate engine name %s", e.Name())
		}
		names[e.Name()] = true
	}
}

func TestConcurrentEnginesThreadCounts(t *testing.T) {
	keys := dataset.Spec{Kind: dataset.Rseq, N: 50000, Cardinality: 1000, Seed: 2}.Keys()
	want := refVectorCount(keys)
	for _, p := range []int{1, 2, 8} {
		for _, e := range ConcurrentEngines(p) {
			got := e.VectorCount(keys)
			if len(got) != len(want) {
				t.Fatalf("%s(p=%d): %d groups want %d", e.Name(), p, len(got), len(want))
			}
		}
	}
}
