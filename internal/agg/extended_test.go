package agg

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"memagg/internal/dataset"
)

// reducerEngines is every engine that implements the generalized surface,
// including the two extension engines.
func reducerEngines() []Engine {
	es := allEngines()
	es = append(es, HashPLAT(4), Adaptive())
	return es
}

func refReduce(keys, vals []uint64, op ReduceOp) map[uint64]uint64 {
	out := map[uint64]uint64{}
	seen := map[uint64]bool{}
	for i, k := range keys {
		v := valueAt(vals, i)
		switch op {
		case OpCount:
			out[k]++
		case OpSum:
			out[k] += v
		case OpMin:
			if !seen[k] || v < out[k] {
				out[k] = v
			}
		case OpMax:
			if !seen[k] || v > out[k] {
				out[k] = v
			}
		}
		seen[k] = true
	}
	return out
}

// reduceDataSets returns testData and a Zipf set three times
// rxSerialCutoff long, past the cutoff both Hash_RX and Hash_GLB run their
// parallel paths above (testData takes their serial fallbacks).
func reduceDataSets(t *testing.T) [][2][]uint64 {
	keys, vals := testData(t)
	n := 3 * rxSerialCutoff
	big := dataset.Spec{Kind: dataset.Zipf, N: n, Cardinality: 20000, Seed: 23}.Keys()
	return [][2][]uint64{{keys, vals}, {big, dataset.Values(n, 23)}}
}

func TestVectorReduceAllOpsAllEngines(t *testing.T) {
	for _, kv := range reduceDataSets(t) {
		keys, vals := kv[0], kv[1]
		for _, op := range []ReduceOp{OpCount, OpSum, OpMin, OpMax} {
			want := refReduce(keys, vals, op)
			for _, e := range reducerEngines() {
				got := AsReducer(e).VectorReduce(keys, vals, op)
				if len(got) != len(want) {
					t.Fatalf("%d rows %s/%s: %d groups want %d", len(keys), e.Name(), op, len(got), len(want))
				}
				for _, g := range got {
					if want[g.Key] != g.Value {
						t.Fatalf("%d rows %s/%s: key %d = %d want %d",
							len(keys), e.Name(), op, g.Key, g.Value, want[g.Key])
					}
				}
			}
		}
	}
}

func TestVectorReduceCountMatchesVectorCount(t *testing.T) {
	keys, _ := testData(t)
	for _, e := range reducerEngines() {
		counts := map[uint64]uint64{}
		for _, g := range e.VectorCount(keys) {
			counts[g.Key] = g.Count
		}
		for _, g := range AsReducer(e).VectorReduce(keys, nil, OpCount) {
			if counts[g.Key] != g.Value {
				t.Fatalf("%s: VectorReduce(COUNT) disagrees with VectorCount at key %d",
					e.Name(), g.Key)
			}
		}
	}
}

func TestVectorHolisticQuantileAndMode(t *testing.T) {
	for _, kv := range reduceDataSets(t) {
		keys, vals := kv[0], kv[1]
		wantQ := refHolistic(keys, vals, QuantileFunc(0.9))
		wantM := refHolistic(keys, vals, ModeFunc)
		for _, e := range reducerEngines() {
			r := AsReducer(e)
			gotQ := r.VectorHolistic(keys, vals, QuantileFunc(0.9))
			if len(gotQ) != len(wantQ) {
				t.Fatalf("%d rows %s: p90 of %d groups want %d", len(keys), e.Name(), len(gotQ), len(wantQ))
			}
			for _, g := range gotQ {
				if g.Value != wantQ[g.Key] {
					t.Fatalf("%d rows %s: p90 of key %d = %v want %v", len(keys), e.Name(), g.Key, g.Value, wantQ[g.Key])
				}
			}
			for _, g := range r.VectorHolistic(keys, vals, ModeFunc) {
				if g.Value != wantM[g.Key] {
					t.Fatalf("%d rows %s: mode of key %d = %v want %v", len(keys), e.Name(), g.Key, g.Value, wantM[g.Key])
				}
			}
		}
	}
}

// refHolistic applies fn to a copy of every group's values.
func refHolistic(keys, vals []uint64, fn HolisticFunc) map[uint64]float64 {
	groups := map[uint64][]uint64{}
	for i, k := range keys {
		groups[k] = append(groups[k], valueAt(vals, i))
	}
	out := map[uint64]float64{}
	for k, g := range groups {
		out[k] = fn(g)
	}
	return out
}

func TestVectorHolisticMedianMatchesVectorMedian(t *testing.T) {
	keys, vals := testData(t)
	for _, e := range reducerEngines() {
		want := map[uint64]float64{}
		for _, g := range e.VectorMedian(keys, vals) {
			want[g.Key] = g.Value
		}
		for _, g := range AsReducer(e).VectorHolistic(keys, vals, MedianFunc) {
			if want[g.Key] != g.Value {
				t.Fatalf("%s: holistic median disagrees at key %d", e.Name(), g.Key)
			}
		}
	}
}

func TestReduceEmptyInput(t *testing.T) {
	for _, e := range reducerEngines() {
		if got := AsReducer(e).VectorReduce(nil, nil, OpSum); len(got) != 0 {
			t.Fatalf("%s: reduce on empty = %v", e.Name(), got)
		}
		if got := AsReducer(e).VectorHolistic(nil, nil, MedianFunc); len(got) != 0 {
			t.Fatalf("%s: holistic on empty = %v", e.Name(), got)
		}
	}
}

func TestScalarExtensions(t *testing.T) {
	vals := []uint64{5, 1, 5, 9, 5, 2}
	if ScalarSum(vals) != 27 {
		t.Fatal("ScalarSum")
	}
	if v, ok := ScalarMin(vals); !ok || v != 1 {
		t.Fatal("ScalarMin")
	}
	if v, ok := ScalarMax(vals); !ok || v != 9 {
		t.Fatal("ScalarMax")
	}
	if v, c, ok := ScalarMode(vals); !ok || v != 5 || c != 3 {
		t.Fatal("ScalarMode")
	}
	if ScalarQuantile(vals, 0) != 1 {
		t.Fatal("ScalarQuantile")
	}
	// The copies must leave the input untouched.
	if vals[0] != 5 || vals[5] != 2 {
		t.Fatal("scalar extension mutated input")
	}
}

func TestReduceStateCombine(t *testing.T) {
	cases := []struct {
		op   ReduceOp
		a, b uint64
		want uint64
	}{
		{OpCount, 3, 4, 7},
		{OpSum, 3, 4, 7},
		{OpMin, 3, 4, 3},
		{OpMax, 3, 4, 4},
	}
	for _, c := range cases {
		s := reduceState{val: c.a, seen: true}
		s.combine(c.op, reduceState{val: c.b, seen: true})
		if s.val != c.want {
			t.Errorf("%s: combine(%d,%d)=%d want %d", c.op, c.a, c.b, s.val, c.want)
		}
	}
	// Combining with an unseen state is a no-op; combining into an unseen
	// state adopts the other side.
	s := reduceState{val: 9, seen: true}
	s.combine(OpMin, reduceState{})
	if s.val != 9 {
		t.Fatal("combine with unseen changed state")
	}
	var empty reduceState
	empty.combine(OpMin, reduceState{val: 2, seen: true})
	if empty.val != 2 || !empty.seen {
		t.Fatal("combine into unseen failed")
	}
}

func TestReduceOpString(t *testing.T) {
	if OpCount.String() != "COUNT" || OpMax.String() != "MAX" {
		t.Fatal("ReduceOp.String")
	}
}

// --- PLAT engine ---------------------------------------------------------------

func TestPLATMatchesReferenceAcrossThreadCounts(t *testing.T) {
	keys := dataset.Spec{Kind: dataset.HhitShf, N: 60000, Cardinality: 900, Seed: 13}.Keys()
	vals := dataset.Values(len(keys), 13)
	want := refVectorCount(keys)
	wantMed := refVectorMedian(keys, vals)
	for _, p := range []int{1, 2, 3, 8} {
		e := HashPLAT(p)
		got := e.VectorCount(keys)
		if len(got) != len(want) {
			t.Fatalf("p=%d: %d groups want %d", p, len(got), len(want))
		}
		for _, g := range got {
			if want[g.Key] != g.Count {
				t.Fatalf("p=%d: key %d count %d want %d", p, g.Key, g.Count, want[g.Key])
			}
		}
		for _, g := range e.VectorMedian(keys, vals) {
			if wantMed[g.Key] != g.Value {
				t.Fatalf("p=%d: key %d median %v want %v", p, g.Key, g.Value, wantMed[g.Key])
			}
		}
	}
}

// TestPLATFewerRowsThanWorkers runs Hash_PLAT on fewer rows than workers,
// where its schedule runs one worker: the merge must then keep every
// group, not only those of the first of the requested partitions.
func TestPLATFewerRowsThanWorkers(t *testing.T) {
	for _, p := range []int{4, 8} {
		for _, n := range []int{0, 1, 3, p - 1} {
			keys, vals := make([]uint64, n), make([]uint64, n)
			for i := range keys {
				keys[i], vals[i] = uint64(i%3+1), uint64(10*i+5)
			}
			e := HashPLAT(p)
			name := fmt.Sprintf("p=%d n=%d", p, n)
			wantQ1 := refVectorCount(keys)
			gotQ1 := e.VectorCount(keys)
			checkRows(t, name+" Q1", len(gotQ1), len(wantQ1))
			for _, g := range gotQ1 {
				if g.Count != wantQ1[g.Key] {
					t.Fatalf("%s Q1 key %d: %d want %d", name, g.Key, g.Count, wantQ1[g.Key])
				}
			}
			wantQ2 := refVectorAvg(keys, vals)
			gotQ2 := e.VectorAvg(keys, vals)
			checkRows(t, name+" Q2", len(gotQ2), len(wantQ2))
			for _, g := range gotQ2 {
				if g.Value != wantQ2[g.Key] {
					t.Fatalf("%s Q2 key %d: %v want %v", name, g.Key, g.Value, wantQ2[g.Key])
				}
			}
			wantQ3 := refVectorMedian(keys, vals)
			gotQ3 := e.VectorMedian(keys, vals)
			checkRows(t, name+" Q3", len(gotQ3), len(wantQ3))
			for _, g := range gotQ3 {
				if g.Value != wantQ3[g.Key] {
					t.Fatalf("%s Q3 key %d: %v want %v", name, g.Key, g.Value, wantQ3[g.Key])
				}
			}
			for _, op := range []ReduceOp{OpCount, OpSum, OpMin, OpMax} {
				want := refReduce(keys, vals, op)
				got := AsReducer(e).VectorReduce(keys, vals, op)
				checkRows(t, name+" "+op.String(), len(got), len(want))
				for _, g := range got {
					if g.Value != want[g.Key] {
						t.Fatalf("%s %s key %d: %d want %d", name, op, g.Key, g.Value, want[g.Key])
					}
				}
			}
			wantH := refHolistic(keys, vals, ModeFunc)
			gotH := AsReducer(e).VectorHolistic(keys, vals, ModeFunc)
			checkRows(t, name+" mode", len(gotH), len(wantH))
			for _, g := range gotH {
				if g.Value != wantH[g.Key] {
					t.Fatalf("%s mode key %d: %v want %v", name, g.Key, g.Value, wantH[g.Key])
				}
			}
		}
	}
}

func checkRows(t *testing.T, what string, got, want int) {
	t.Helper()
	if got != want {
		t.Fatalf("%s: %d groups want %d", what, got, want)
	}
}

func TestPLATNoDuplicateGroupsAcrossPartitions(t *testing.T) {
	keys := dataset.Spec{Kind: dataset.Zipf, N: 40000, Cardinality: 5000, Seed: 4}.Keys()
	got := HashPLAT(7).VectorCount(keys)
	seen := map[uint64]bool{}
	for _, g := range got {
		if seen[g.Key] {
			t.Fatalf("key %d emitted by two partitions", g.Key)
		}
		seen[g.Key] = true
	}
}

func TestPLATUnsupported(t *testing.T) {
	e := HashPLAT(2)
	if _, err := e.ScalarMedian([]uint64{1}); err != ErrUnsupported {
		t.Fatal("PLAT should reject Q6")
	}
	if _, err := e.VectorCountRange([]uint64{1}, 0, 1); err != ErrUnsupported {
		t.Fatal("PLAT should reject Q7")
	}
}

// --- adaptive engine -------------------------------------------------------------

func TestAdaptiveChoosesHashAtLowCardinality(t *testing.T) {
	e := Adaptive().(*adaptiveEngine)
	low := dataset.Spec{Kind: dataset.RseqShf, N: 100000, Cardinality: 100, Seed: 1}.Keys()
	if got := e.choose(low); got.Category() != HashBased {
		t.Fatalf("low cardinality chose %s", got.Name())
	}
	high := dataset.Sequential(100000) // every key distinct
	if got := e.choose(high); got.Category() != SortBased {
		t.Fatalf("high cardinality chose %s", got.Name())
	}
}

func TestAdaptiveCorrectEitherWay(t *testing.T) {
	for _, card := range []int{50, 40000} {
		keys := dataset.Spec{Kind: dataset.RseqShf, N: 50000, Cardinality: card, Seed: 2}.Keys()
		vals := dataset.Values(len(keys), 2)
		e := Adaptive()
		want := refVectorCount(keys)
		got := e.VectorCount(keys)
		if len(got) != len(want) {
			t.Fatalf("card=%d: %d groups want %d", card, len(got), len(want))
		}
		m, err := e.ScalarMedian(keys)
		if err != nil || m != refScalarMedian(keys) {
			t.Fatalf("card=%d: adaptive Q6 = %v, %v", card, m, err)
		}
		if _, err := e.VectorCountRange(keys, 1, uint64(card/2+1)); err != nil {
			t.Fatalf("card=%d: adaptive Q7: %v", card, err)
		}
		med := e.VectorMedian(keys, vals)
		wantMed := refVectorMedian(keys, vals)
		for _, g := range med {
			if math.Abs(g.Value-wantMed[g.Key]) > 0 {
				t.Fatalf("card=%d: adaptive median wrong at key %d", card, g.Key)
			}
		}
	}
}

func TestAdaptiveOrderedWhenSortChosen(t *testing.T) {
	keys := dataset.Sequential(80000)
	rows := Adaptive().VectorCount(keys)
	if !sort.SliceIsSorted(rows, func(i, j int) bool { return rows[i].Key < rows[j].Key }) {
		t.Fatal("sort-routed adaptive output not ordered")
	}
}
