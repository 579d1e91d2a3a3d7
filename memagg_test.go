package memagg

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"testing"
)

func TestAllBackendsConstruct(t *testing.T) {
	for _, b := range Backends() {
		a, err := New(b, Options{Threads: 2})
		if err != nil {
			t.Fatalf("New(%s): %v", b, err)
		}
		if a.Backend() != b {
			t.Fatalf("Backend() = %s want %s", a.Backend(), b)
		}
	}
	if _, err := New("bogus", Options{}); err == nil {
		t.Fatal("bogus backend accepted")
	}
}

func TestPublicAPIRoundTrip(t *testing.T) {
	keys, err := Generate(Zipf, 20000, 500, 7)
	if err != nil {
		t.Fatal(err)
	}
	vals := GenerateValues(len(keys), 7)

	ref := map[uint64]uint64{}
	for _, k := range keys {
		ref[k]++
	}

	for _, b := range Backends() {
		a, err := New(b, Options{Threads: 2})
		if err != nil {
			t.Fatal(err)
		}
		rows := a.CountByKey(keys)
		if len(rows) != len(ref) {
			t.Fatalf("%s: %d groups want %d", b, len(rows), len(ref))
		}
		for _, r := range rows {
			if ref[r.Key] != r.Count {
				t.Fatalf("%s: key %d count %d want %d", b, r.Key, r.Count, ref[r.Key])
			}
		}
		if got := a.Count(keys); got != uint64(len(keys)) {
			t.Fatalf("%s: Count = %d", b, got)
		}
		av := a.AvgByKey(keys, vals)
		md := a.MedianByKey(keys, vals)
		if len(av) != len(ref) || len(md) != len(ref) {
			t.Fatalf("%s: Q2/Q3 group counts wrong", b)
		}
	}
}

func TestMedianAndRangeSupportMatrix(t *testing.T) {
	keys, _ := Generate(Rseq, 10000, 100, 1)
	hashBackends := map[Backend]bool{
		HashSC: true, HashLP: true, HashSparse: true, HashDense: true,
		HashLC: true, HashTBBSC: true, HashPLAT: true, HashRX: true,
		HashGLB: true,
	}
	for _, b := range Backends() {
		a, _ := New(b, Options{})
		_, merr := a.Median(keys)
		_, rerr := a.CountRange(keys, 10, 50)
		if hashBackends[b] {
			if !errors.Is(merr, ErrUnsupportedQuery) || !errors.Is(rerr, ErrUnsupportedQuery) {
				t.Fatalf("%s: hash backend should reject Q6/Q7 (got %v, %v)", b, merr, rerr)
			}
			continue
		}
		if merr != nil || rerr != nil {
			t.Fatalf("%s: Q6/Q7 failed: %v, %v", b, merr, rerr)
		}
	}
}

func TestCountRangeValues(t *testing.T) {
	keys, _ := Generate(Rseq, 10000, 100, 1) // keys 1..100, 100 each
	a, _ := New(Btree, Options{})
	rows, err := a.CountRange(keys, 10, 19)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("%d rows want 10", len(rows))
	}
	for _, r := range rows {
		if r.Count != 100 {
			t.Fatalf("key %d count %d want 100", r.Key, r.Count)
		}
	}
}

func TestMedianValue(t *testing.T) {
	keys := []uint64{5, 1, 9, 3, 7}
	a, _ := New(Spreadsort, Options{})
	got, err := a.Median(keys)
	if err != nil || got != 5 {
		t.Fatalf("Median = %v, %v", got, err)
	}
}

func TestGenerateValidates(t *testing.T) {
	if _, err := Generate(Rseq, 0, 10, 1); err == nil {
		t.Fatal("accepted n=0")
	}
	if _, err := Generate(MovC, 100, 10, 1); err == nil {
		t.Fatal("accepted MovC below window")
	}
	keys, err := Generate(Hhit, 1000, 50, 1)
	if err != nil || len(keys) != 1000 {
		t.Fatalf("Generate: %v", err)
	}
}

func TestOrderedBackendsSortTheirOutput(t *testing.T) {
	keys, _ := Generate(RseqShf, 5000, 200, 3)
	for _, b := range []Backend{ART, Judy, Btree, Introsort, Spreadsort, SortBI} {
		a, _ := New(b, Options{Threads: 2})
		rows := a.CountByKey(keys)
		if !sort.SliceIsSorted(rows, func(i, j int) bool { return rows[i].Key < rows[j].Key }) {
			t.Fatalf("%s: output not key-ordered", b)
		}
	}
}

func TestRecommendFlowChart(t *testing.T) {
	cases := []struct {
		w    Workload
		want Backend
	}{
		// Scalar branch.
		{Workload{Output: Scalar, WriteOnceReadOnce: true}, Spreadsort},
		{Workload{Output: Scalar}, Judy},
		// Vector holistic branch.
		{Workload{Output: Vector, Function: Holistic}, Spreadsort},
		{Workload{Output: Vector, Function: Holistic, Multithreaded: true}, SortBI},
		// Vector distributive with range.
		{Workload{Output: Vector, RangeCondition: true, PrebuiltIndex: true}, Btree},
		{Workload{Output: Vector, RangeCondition: true}, ART},
		// Vector distributive plain.
		{Workload{Output: Vector}, HashLP},
		{Workload{Output: Vector, Function: Algebraic}, HashLP},
		{Workload{Output: Vector, Multithreaded: true}, HashTBBSC},
		// A known estimated cardinality splits the multithreaded vector
		// branch at the measured ~64Ki-group crossover: the global shared
		// table below it, the radix-partitioned engine at and above it.
		// Unknown cardinality keeps the paper's Hash_TBBSC route.
		{Workload{Output: Vector, Multithreaded: true, EstimatedGroups: 1 << 20}, HashRX},
		{Workload{Output: Vector, Function: Algebraic, Multithreaded: true, EstimatedGroups: 1 << 16}, HashRX},
		{Workload{Output: Vector, Multithreaded: true, EstimatedGroups: 1 << 10}, HashGLB},
		{Workload{Output: Vector, Function: Algebraic, Multithreaded: true, EstimatedGroups: (1 << 16) - 1}, HashGLB},
		{Workload{Output: Vector, EstimatedGroups: 1 << 20}, HashLP},
	}
	for i, c := range cases {
		got := Recommend(c.w)
		if got.Backend != c.want {
			t.Errorf("case %d: Recommend = %s want %s", i, got.Backend, c.want)
		}
		if got.Reason == "" {
			t.Errorf("case %d: empty reason", i)
		}
		// Every recommendation must be constructible.
		if _, err := New(got.Backend, Options{}); err != nil {
			t.Errorf("case %d: recommended unknown backend %s", i, got.Backend)
		}
	}
}

func TestExtendedByKeyQueries(t *testing.T) {
	keys, _ := Generate(Zipf, 20000, 300, 9)
	vals := GenerateValues(len(keys), 9)
	// Reference.
	sum := map[uint64]uint64{}
	min := map[uint64]uint64{}
	max := map[uint64]uint64{}
	seen := map[uint64]bool{}
	for i, k := range keys {
		v := vals[i]
		sum[k] += v
		if !seen[k] || v < min[k] {
			min[k] = v
		}
		if !seen[k] || v > max[k] {
			max[k] = v
		}
		seen[k] = true
	}
	for _, b := range []Backend{HashLP, Btree, Spreadsort, HashPLAT, Adaptive, SortBI} {
		a, err := New(b, Options{Threads: 2})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range a.SumByKey(keys, vals) {
			if sum[r.Key] != r.Value {
				t.Fatalf("%s: SumByKey key %d = %d want %d", b, r.Key, r.Value, sum[r.Key])
			}
		}
		for _, r := range a.MinByKey(keys, vals) {
			if min[r.Key] != r.Value {
				t.Fatalf("%s: MinByKey key %d wrong", b, r.Key)
			}
		}
		for _, r := range a.MaxByKey(keys, vals) {
			if max[r.Key] != r.Value {
				t.Fatalf("%s: MaxByKey key %d wrong", b, r.Key)
			}
		}
		// Quantile(1.0) must equal the max; mode must be one of the values.
		maxQ := a.QuantileByKey(keys, vals, 1.0)
		for _, r := range maxQ {
			if uint64(r.Value) != max[r.Key] {
				t.Fatalf("%s: QuantileByKey(1.0) key %d = %v want %d", b, r.Key, r.Value, max[r.Key])
			}
		}
		if rows := a.ModeByKey(keys, vals); len(rows) != len(sum) {
			t.Fatalf("%s: ModeByKey group count wrong", b)
		}
	}
}

func TestStringAggregatorRoundTrip(t *testing.T) {
	keys := []string{"b", "a", "b", "c", "a", "b", ""}
	vals := []uint64{1, 2, 3, 4, 5, 6, 7}
	want := map[string]uint64{"a": 2, "b": 3, "c": 1, "": 1}
	for _, b := range StringBackends() {
		a, err := NewStrings(b)
		if err != nil {
			t.Fatal(err)
		}
		if a.Backend() != b {
			t.Fatalf("Backend() = %s", a.Backend())
		}
		rows := a.CountByKey(keys)
		if len(rows) != len(want) {
			t.Fatalf("%s: %d groups want %d", b, len(rows), len(want))
		}
		for _, r := range rows {
			if want[r.Key] != r.Count {
				t.Fatalf("%s: key %q count %d", b, r.Key, r.Count)
			}
		}
		if len(a.AvgByKey(keys, vals)) != len(want) || len(a.MedianByKey(keys, vals)) != len(want) {
			t.Fatalf("%s: avg/median group counts wrong", b)
		}
		m, err := a.MedianKey(keys)
		if errors.Is(err, ErrUnsupportedQuery) {
			if b != StrHashLP && b != StrHashSC {
				t.Fatalf("%s rejected MedianKey", b)
			}
		} else if m != "b" { // sorted: "", a, a, b, b, b, c → index 3
			t.Fatalf("%s: median key %q want b", b, m)
		}
		pr, err := a.CountByPrefix(keys, "b")
		if errors.Is(err, ErrUnsupportedQuery) {
			continue
		}
		if len(pr) != 1 || pr[0].Count != 3 {
			t.Fatalf("%s: prefix count %v", b, pr)
		}
	}
	if _, err := NewStrings("bogus"); err == nil {
		t.Fatal("bogus string backend accepted")
	}
}

// TestResultsOwnedAndNonNil pins two properties of the batch vector
// results, which are the engines' own row slices: a result is not changed
// by a later call on other input (under the arena allocator the sort
// engines recycle their working buffers across calls), and empty input
// answers a non-nil, zero-length slice.
func TestResultsOwnedAndNonNil(t *testing.T) {
	keysA, err := Generate(Zipf, 5000, 300, 11)
	if err != nil {
		t.Fatal(err)
	}
	keysB, err := Generate(RseqShf, 8000, 700, 12)
	if err != nil {
		t.Fatal(err)
	}
	valsA, valsB := GenerateValues(len(keysA), 11), GenerateValues(len(keysB), 12)

	for _, b := range Backends() {
		for _, al := range Allocators() {
			name := fmt.Sprintf("%s/%s", b, al)
			a, err := New(b, Options{Threads: 2, Allocator: al})
			if err != nil {
				t.Fatal(err)
			}
			counts := a.CountByKey(keysA)
			medians := a.MedianByKey(keysA, valsA)
			sums := a.SumByKey(keysA, valsA)
			quantiles := a.QuantileByKey(keysA, valsA, 0.9)
			wantCounts, wantMedians := slices.Clone(counts), slices.Clone(medians)
			wantSums, wantQuantiles := slices.Clone(sums), slices.Clone(quantiles)

			a.CountByKey(keysB)
			a.MedianByKey(keysB, valsB)
			a.SumByKey(keysB, valsB)
			a.QuantileByKey(keysB, valsB, 0.9)
			if !slices.Equal(counts, wantCounts) || !slices.Equal(medians, wantMedians) ||
				!slices.Equal(sums, wantSums) || !slices.Equal(quantiles, wantQuantiles) {
				t.Fatalf("%s: a later call on other input changed an earlier result", name)
			}

			checkEmpty(t, name+" CountByKey", a.CountByKey(nil))
			checkEmpty(t, name+" AvgByKey", a.AvgByKey(nil, nil))
			checkEmpty(t, name+" MedianByKey", a.MedianByKey(nil, nil))
			checkEmpty(t, name+" SumByKey", a.SumByKey(nil, nil))
			checkEmpty(t, name+" MinByKey", a.MinByKey(nil, nil))
			checkEmpty(t, name+" MaxByKey", a.MaxByKey(nil, nil))
			checkEmpty(t, name+" QuantileByKey", a.QuantileByKey(nil, nil, 0.5))
			checkEmpty(t, name+" ModeByKey", a.ModeByKey(nil, nil))
			if rows, err := a.CountRange(nil, 0, 10); err == nil {
				checkEmpty(t, name+" CountRange", rows)
			}
		}
	}

	strA := make([]string, len(keysA))
	for i, k := range keysA {
		strA[i] = fmt.Sprintf("k%d", k)
	}
	strB := make([]string, len(keysB))
	for i, k := range keysB {
		strB[i] = fmt.Sprintf("key-%d", k)
	}
	for _, b := range StringBackends() {
		a, err := NewStrings(b)
		if err != nil {
			t.Fatal(err)
		}
		counts := a.CountByKey(strA)
		medians := a.MedianByKey(strA, valsA)
		wantCounts, wantMedians := slices.Clone(counts), slices.Clone(medians)
		a.CountByKey(strB)
		a.MedianByKey(strB, valsB)
		if !slices.Equal(counts, wantCounts) || !slices.Equal(medians, wantMedians) {
			t.Fatalf("%s: a later call on other input changed an earlier result", b)
		}

		checkEmpty(t, string(b)+" CountByKey", a.CountByKey(nil))
		checkEmpty(t, string(b)+" AvgByKey", a.AvgByKey(nil, nil))
		checkEmpty(t, string(b)+" MedianByKey", a.MedianByKey(nil, nil))
		if rows, err := a.CountByPrefix(nil, "k"); err == nil {
			checkEmpty(t, string(b)+" CountByPrefix", rows)
		}
	}
}

func checkEmpty[T any](t *testing.T, what string, rows []T) {
	t.Helper()
	if rows == nil || len(rows) != 0 {
		t.Fatalf("%s on empty input = %#v, want a non-nil empty slice", what, rows)
	}
}
