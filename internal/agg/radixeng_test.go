package agg

import (
	"errors"
	"math"
	"testing"

	"memagg/internal/dataset"
	"memagg/internal/radix"
)

func TestHashRXIdentity(t *testing.T) {
	e := HashRX(4)
	if e.Name() != "Hash_RX" {
		t.Fatalf("name = %q", e.Name())
	}
	if e.Category() != HashBased {
		t.Fatalf("category = %v", e.Category())
	}
}

func TestHashRXUnsupportedQueries(t *testing.T) {
	e := HashRX(4)
	if _, err := e.ScalarMedian([]uint64{1, 2, 3}); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("ScalarMedian err = %v", err)
	}
	if _, err := e.VectorCountRange([]uint64{1, 2, 3}, 1, 2); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("VectorCountRange err = %v", err)
	}
}

// TestHashRXPartitionedPath drives inputs past rxSerialCutoff so the
// two-phase radix schedule (not the serial fallback) answers the queries.
func TestHashRXPartitionedPath(t *testing.T) {
	n := 4 * rxSerialCutoff
	for _, card := range []int{50, 5000, 60000} {
		keys := dataset.Spec{Kind: dataset.RseqShf, N: n, Cardinality: card, Seed: 7}.Keys()
		vals := dataset.Values(n, 7)
		for _, p := range []int{2, 4, 7} {
			e := HashRX(p)

			wantQ1 := refVectorCount(keys)
			gotQ1 := e.VectorCount(keys)
			if len(gotQ1) != len(wantQ1) {
				t.Fatalf("card=%d p=%d Q1: %d groups want %d", card, p, len(gotQ1), len(wantQ1))
			}
			for _, g := range gotQ1 {
				if wantQ1[g.Key] != g.Count {
					t.Fatalf("card=%d p=%d Q1 key %d: %d want %d", card, p, g.Key, g.Count, wantQ1[g.Key])
				}
			}

			wantQ2 := refVectorAvg(keys, vals)
			for _, g := range e.VectorAvg(keys, vals) {
				if math.Abs(g.Value-wantQ2[g.Key]) > 1e-9 {
					t.Fatalf("card=%d p=%d Q2 key %d: %v want %v", card, p, g.Key, g.Value, wantQ2[g.Key])
				}
			}

			wantQ3 := refVectorMedian(keys, vals)
			gotQ3 := e.VectorMedian(keys, vals)
			if len(gotQ3) != len(wantQ3) {
				t.Fatalf("card=%d p=%d Q3: %d groups want %d", card, p, len(gotQ3), len(wantQ3))
			}
			for _, g := range gotQ3 {
				if g.Value != wantQ3[g.Key] {
					t.Fatalf("card=%d p=%d Q3 key %d: %v want %v", card, p, g.Key, g.Value, wantQ3[g.Key])
				}
			}
		}
	}
}

func TestHashRXSerialFallback(t *testing.T) {
	// Below the cutoff the engine must still answer correctly (single
	// buildPart over the whole input).
	keys := dataset.Spec{Kind: dataset.Zipf, N: rxSerialCutoff / 2, Cardinality: 300, Seed: 3}.Keys()
	want := refVectorCount(keys)
	got := HashRX(8).VectorCount(keys)
	if len(got) != len(want) {
		t.Fatalf("%d groups want %d", len(got), len(want))
	}
	for _, g := range got {
		if want[g.Key] != g.Count {
			t.Fatalf("key %d: %d want %d", g.Key, g.Count, want[g.Key])
		}
	}
}

func TestEstimateGroups(t *testing.T) {
	if g := estimateGroups(nil); g != 0 {
		t.Fatalf("empty: %d", g)
	}
	// Input smaller than the sample: exact distinct count.
	keys := dataset.Spec{Kind: dataset.Rseq, N: 1000, Cardinality: 100, Seed: 1}.Keys()
	if g := estimateGroups(keys); g != 100 {
		t.Fatalf("small input: %d want 100", g)
	}
	// Saturated sample (few distinct keys): estimate stays near d, far
	// below n.
	keys = dataset.Spec{Kind: dataset.RseqShf, N: 1 << 18, Cardinality: 64, Seed: 2}.Keys()
	if g := estimateGroups(keys); g < 64 || g > 256 {
		t.Fatalf("saturated: %d want ~64..128", g)
	}
	// High-cardinality sample: estimate scales toward n.
	keys = dataset.Spec{Kind: dataset.RseqShf, N: 1 << 18, Cardinality: 1 << 18, Seed: 3}.Keys()
	if g := estimateGroups(keys); g < (1<<18)/2 {
		t.Fatalf("distinct: %d want >= %d", g, (1<<18)/2)
	}
}

func TestChooseBits(t *testing.T) {
	// Always within the partitioner's clamp.
	for _, tc := range []struct{ n, workers, groups int }{
		{1 << 15, 1, 10},
		{1 << 20, 8, 100},
		{1 << 24, 8, 1 << 22},
		{1 << 24, 64, 1 << 24},
		{1 << 16, 4, 1 << 16},
	} {
		b := chooseBits(tc.n, tc.workers, tc.groups)
		if b < 1 || b > radix.MaxBits {
			t.Fatalf("chooseBits(%v) = %d outside [1,%d]", tc, b, radix.MaxBits)
		}
	}
	// High cardinality on big inputs must fan out more than low cardinality.
	lo := chooseBits(1<<24, 8, 1<<8)
	hi := chooseBits(1<<24, 8, 1<<24)
	if hi <= lo {
		t.Fatalf("no cardinality response: lo=%d hi=%d", lo, hi)
	}
	// Small inputs never fan out so far partitions become trivial.
	b := chooseBits(1<<15, 8, 1<<15)
	if (1<<15)>>uint(b) < 1024 && b > rxMinBits {
		t.Fatalf("over-fanned small input: bits=%d", b)
	}
}

// TestCountPhases checks the phased Q1 split agrees with each engine's
// fused VectorCount, at a size that exercises Hash_RX's partitioned path.
func TestCountPhases(t *testing.T) {
	n := 2 * rxSerialCutoff
	keys := dataset.Spec{Kind: dataset.RseqShf, N: n, Cardinality: 5000, Seed: 11}.Keys()
	want := refVectorCount(keys)
	es := allEngines()
	es = append(es, HashPLAT(4), Adaptive())
	for _, e := range es {
		rows, build, iterate, ok := CountPhases(e, keys)
		if len(rows) != len(want) {
			t.Fatalf("%s: %d groups want %d", e.Name(), len(rows), len(want))
		}
		for _, g := range rows {
			if want[g.Key] != g.Count {
				t.Fatalf("%s: key %d count %d want %d", e.Name(), g.Key, g.Count, want[g.Key])
			}
		}
		if !ok && iterate != 0 {
			t.Fatalf("%s: fused fallback reported an iterate phase", e.Name())
		}
		if build < 0 || iterate < 0 {
			t.Fatalf("%s: negative phase time", e.Name())
		}
	}
}

func TestCountPhasesEmpty(t *testing.T) {
	for _, e := range allEngines() {
		rows, _, _, _ := CountPhases(e, nil)
		if len(rows) != 0 {
			t.Fatalf("%s: phases on empty = %v", e.Name(), rows)
		}
	}
}
