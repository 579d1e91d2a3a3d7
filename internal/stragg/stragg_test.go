package stragg

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"

	"memagg/internal/agg"
	"memagg/internal/dataset"
)

// wordData produces a skewed string key column and a value column.
func wordData(n int, card int, seed uint64) ([]string, []uint64) {
	rng := dataset.NewRNG(seed)
	z := dataset.NewZipfSampler(uint64(card), 0.5)
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("word-%05d", z.Sample(rng))
	}
	return keys, dataset.Values(n, seed)
}

func refCount(keys []string) map[string]uint64 {
	m := map[string]uint64{}
	for _, k := range keys {
		m[k]++
	}
	return m
}

func TestAllEnginesAgreeOnCount(t *testing.T) {
	keys, _ := wordData(30000, 700, 5)
	want := refCount(keys)
	for _, e := range Engines() {
		got := e.VectorCount(keys)
		if len(got) != len(want) {
			t.Fatalf("%s: %d groups want %d", e.Name(), len(got), len(want))
		}
		for _, g := range got {
			if want[g.Key] != g.Count {
				t.Fatalf("%s: key %q count %d want %d", e.Name(), g.Key, g.Count, want[g.Key])
			}
		}
		if e.Category() != agg.HashBased {
			if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i].Key < got[j].Key }) {
				t.Fatalf("%s: output not lexicographic", e.Name())
			}
		}
	}
}

func TestAllEnginesAgreeOnAvgAndMedian(t *testing.T) {
	keys, vals := wordData(20000, 300, 9)
	sums := map[string]uint64{}
	counts := map[string]uint64{}
	groups := map[string][]uint64{}
	for i, k := range keys {
		sums[k] += vals[i]
		counts[k]++
		groups[k] = append(groups[k], vals[i])
	}
	wantMed := map[string]float64{}
	for k, g := range groups {
		cp := append([]uint64(nil), g...)
		wantMed[k] = agg.Median(cp)
	}
	for _, e := range Engines() {
		for _, g := range e.VectorAvg(keys, vals) {
			want := float64(sums[g.Key]) / float64(counts[g.Key])
			if diff := g.Value - want; diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("%s: avg of %q = %v want %v", e.Name(), g.Key, g.Value, want)
			}
		}
		for _, g := range e.VectorMedian(keys, vals) {
			if g.Value != wantMed[g.Key] {
				t.Fatalf("%s: median of %q = %v want %v", e.Name(), g.Key, g.Value, wantMed[g.Key])
			}
		}
	}
}

func TestScalarMedianKey(t *testing.T) {
	keys, _ := wordData(10001, 200, 3)
	s := append([]string(nil), keys...)
	sort.Strings(s)
	want := s[(len(s)-1)/2]
	for _, e := range Engines() {
		got, err := e.ScalarMedianKey(keys)
		if errors.Is(err, ErrUnsupported) {
			if e.Category() != agg.HashBased {
				t.Fatalf("%s rejected scalar median", e.Name())
			}
			continue
		}
		if err != nil || got != want {
			t.Fatalf("%s: median key %q want %q (err %v)", e.Name(), got, want, err)
		}
	}
}

func TestPrefixCount(t *testing.T) {
	keys := []string{"apple", "app", "apply", "banana", "app", "application", "b", ""}
	for _, prefix := range []string{"", "app", "appl", "b", "z"} {
		want := map[string]uint64{}
		for _, k := range keys {
			if strings.HasPrefix(k, prefix) {
				want[k]++
			}
		}
		for _, e := range Engines() {
			got, err := e.PrefixCount(keys, prefix)
			if errors.Is(err, ErrUnsupported) {
				if e.Category() != agg.HashBased {
					t.Fatalf("%s rejected prefix count", e.Name())
				}
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s prefix %q: %d groups want %d (%v)",
					e.Name(), prefix, len(got), len(want), got)
			}
			for _, g := range got {
				if want[g.Key] != g.Count {
					t.Fatalf("%s prefix %q: key %q count %d want %d",
						e.Name(), prefix, g.Key, g.Count, want[g.Key])
				}
			}
		}
	}
}

func TestEmptyInputs(t *testing.T) {
	for _, e := range Engines() {
		if got := e.VectorCount(nil); len(got) != 0 {
			t.Fatalf("%s: count on empty = %v", e.Name(), got)
		}
		if got := e.VectorMedian(nil, nil); len(got) != 0 {
			t.Fatalf("%s: median on empty = %v", e.Name(), got)
		}
		if m, err := e.ScalarMedianKey(nil); err == nil && m != "" {
			t.Fatalf("%s: scalar median on empty = %q", e.Name(), m)
		}
	}
}

func TestByName(t *testing.T) {
	for _, e := range Engines() {
		got, err := ByName(e.Name())
		if err != nil || got.Name() != e.Name() {
			t.Fatalf("ByName(%s): %v", e.Name(), err)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("ByName accepted garbage")
	}
}

func TestInputNotMutated(t *testing.T) {
	keys, vals := wordData(5000, 100, 1)
	kc := append([]string(nil), keys...)
	for _, e := range Engines() {
		e.VectorCount(keys)
		e.VectorMedian(keys, vals)
		e.ScalarMedianKey(keys)
		e.PrefixCount(keys, "word-0")
	}
	for i := range keys {
		if keys[i] != kc[i] {
			t.Fatal("engine mutated input")
		}
	}
}
