package radix

import (
	"slices"
	"testing"

	"memagg/internal/dataset"
)

// checkPartitioned verifies the structural invariants of a partitioning
// pass against the original input: bounds are a monotone cover of [0, n),
// every tuple sits in the partition its hash selects, key/value pairing is
// preserved, and the permuted columns are a multiset-equal rearrangement.
func checkPartitioned(t *testing.T, pt *Partitioned, keys, vals []uint64) {
	t.Helper()
	n := len(keys)
	p := pt.NumPartitions()
	if p != 1<<uint(pt.Bits) {
		t.Fatalf("NumPartitions = %d want %d", p, 1<<uint(pt.Bits))
	}
	if pt.Bounds[0] != 0 || pt.Bounds[p] != n {
		t.Fatalf("bounds cover [%d, %d) want [0, %d)", pt.Bounds[0], pt.Bounds[p], n)
	}
	for q := 0; q < p; q++ {
		if pt.Bounds[q] > pt.Bounds[q+1] {
			t.Fatalf("bounds not monotone at %d: %d > %d", q, pt.Bounds[q], pt.Bounds[q+1])
		}
		for i, k := range pt.PartKeys(q) {
			if got := PartitionIndex(k, pt.Bits); got != q {
				t.Fatalf("key %d in partition %d, hashes to %d", k, q, got)
			}
			_ = i
		}
	}

	// Multiset equality of (key, value) pairs. Values default to zero when
	// the input value column is short, matching the operators' convention.
	type kv struct{ k, v uint64 }
	want := map[kv]int{}
	for i, k := range keys {
		var v uint64
		if vals != nil && i < len(vals) {
			v = vals[i]
		}
		want[kv{k, v}]++
	}
	got := map[kv]int{}
	for q := 0; q < p; q++ {
		pk, pv := pt.PartKeys(q), pt.PartVals(q)
		for i, k := range pk {
			var v uint64
			if pv != nil {
				v = pv[i]
			}
			got[kv{k, v}]++
		}
	}
	if len(got) != len(want) {
		t.Fatalf("pair multiset: %d distinct pairs want %d", len(got), len(want))
	}
	for pair, c := range want {
		if got[pair] != c {
			t.Fatalf("pair %v: count %d want %d", pair, got[pair], c)
		}
	}
}

func TestPartitionKeysAndValues(t *testing.T) {
	keys := dataset.Spec{Kind: dataset.Zipf, N: 50000, Cardinality: 3000, Seed: 11}.Keys()
	vals := dataset.Values(len(keys), 11)
	for _, bits := range []int{1, 4, 7, MaxBits} {
		for _, workers := range []int{1, 2, 3, 8} {
			pt := Partition(keys, vals, bits, workers)
			if pt.Bits != bits {
				t.Fatalf("bits=%d workers=%d: got Bits=%d", bits, workers, pt.Bits)
			}
			checkPartitioned(t, pt, keys, vals)
		}
	}
}

func TestPartitionKeysOnly(t *testing.T) {
	keys := dataset.Spec{Kind: dataset.RseqShf, N: 20000, Cardinality: 5000, Seed: 3}.Keys()
	pt := Partition(keys, nil, 6, 4)
	if pt.Vals != nil {
		t.Fatal("keys-only partitioning allocated a value column")
	}
	checkPartitioned(t, pt, keys, nil)
	for q := 0; q < pt.NumPartitions(); q++ {
		if pt.PartVals(q) != nil {
			t.Fatalf("partition %d has non-nil vals", q)
		}
	}
}

func TestPartitionShortValueColumn(t *testing.T) {
	keys := dataset.Random(10000, 1, 500, 7)
	vals := dataset.Values(4000, 7) // shorter than keys: rest aggregate as 0
	pt := Partition(keys, vals, 5, 3)
	checkPartitioned(t, pt, keys, vals)
}

// TestPartitionWriteCombiningEdges exercises buffer-flush boundary cases:
// sizes around multiples of the write-combining buffer length, inputs
// smaller than the worker count, and empty input.
func TestPartitionWriteCombiningEdges(t *testing.T) {
	for _, n := range []int{0, 1, 7, 8, 9, 63, 64, 65, 1000} {
		keys := make([]uint64, n)
		vals := make([]uint64, n)
		for i := range keys {
			keys[i] = uint64(i % 13)
			vals[i] = uint64(i)
		}
		for _, workers := range []int{1, 4} {
			pt := Partition(keys, vals, 4, workers)
			checkPartitioned(t, pt, keys, vals)
		}
	}
}

// TestPartitionDeterministic checks the documented determinism: same input
// and worker count give identical permuted columns.
func TestPartitionDeterministic(t *testing.T) {
	keys := dataset.Spec{Kind: dataset.Hhit, N: 30000, Cardinality: 1000, Seed: 5}.Keys()
	vals := dataset.Values(len(keys), 5)
	a := Partition(keys, vals, 8, 4)
	b := Partition(keys, vals, 8, 4)
	for i := range a.Keys {
		if a.Keys[i] != b.Keys[i] || a.Vals[i] != b.Vals[i] {
			t.Fatalf("non-deterministic scatter at %d", i)
		}
	}
}

func TestPartitionBitsClamped(t *testing.T) {
	keys := dataset.Random(1000, 1, 100, 1)
	if pt := Partition(keys, nil, 0, 2); pt.Bits != 1 {
		t.Fatalf("bits=0 clamped to %d want 1", pt.Bits)
	}
	if pt := Partition(keys, nil, 40, 2); pt.Bits != MaxBits {
		t.Fatalf("bits=40 clamped to %d want %d", pt.Bits, MaxBits)
	}
}

func TestPartitionInputNotMutated(t *testing.T) {
	keys := dataset.Random(5000, 1, 1000, 9)
	vals := dataset.Values(len(keys), 9)
	kcopy := append([]uint64(nil), keys...)
	vcopy := append([]uint64(nil), vals...)
	Partition(keys, vals, 6, 4)
	for i := range keys {
		if keys[i] != kcopy[i] || vals[i] != vcopy[i] {
			t.Fatal("Partition mutated its input")
		}
	}
}

// TestPartitionSegments: scattering a column that arrived in segments is
// the scatter of their concatenation, tuple for tuple at the same worker
// count — segment cuts inside a worker's chunk, empty segments, and short
// or missing value segments (read as zeros) included.
func TestPartitionSegments(t *testing.T) {
	keys := dataset.Random(5000, 1, 700, 3)
	vals := dataset.Values(len(keys), 3)
	cuts := []int{0, 0, 9, 1000, 1000, 2500, 4999, 5000}
	var ks, vs [][]uint64
	for i := 1; i < len(cuts); i++ {
		ks = append(ks, keys[cuts[i-1]:cuts[i]])
		vs = append(vs, vals[cuts[i-1]:cuts[i]])
	}
	flat := append([]uint64(nil), vals...)
	vs[4] = vs[4][:700] // short: the rest reads as zeros
	clear(flat[1000+700 : 2500])
	for _, workers := range []int{1, 3, 8} {
		want := Partition(keys, flat, 6, workers)
		got := PartitionSegments(ks, vs, 6, workers)
		if !slices.Equal(got.Keys, want.Keys) || !slices.Equal(got.Vals, want.Vals) || !slices.Equal(got.Bounds, want.Bounds) {
			t.Fatalf("workers=%d: segmented scatter differs from the scatter of the concatenation", workers)
		}
		checkPartitioned(t, got, keys, flat)
		if k := PartitionSegments(ks, nil, 6, workers); k.Vals != nil || !slices.Equal(k.Keys, want.Keys) {
			t.Fatalf("workers=%d: keys-only segmented scatter differs", workers)
		}
	}
}
