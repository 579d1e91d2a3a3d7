package agg

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"memagg/internal/radix"
)

// groupDump is one group's observable state: the eager folds and the
// value multiset, sorted (holistic functions are multiset functions).
type groupDump struct {
	count, sum, min, max uint64
	vals                 []uint64
}

// dumpTables flattens tables into key → state, failing on a key that
// appears twice (partitions must be key-disjoint).
func dumpTables(t *testing.T, tables ...Table) map[uint64]groupDump {
	t.Helper()
	out := map[uint64]groupDump{}
	for _, tb := range tables {
		if tb.T == nil {
			continue
		}
		tb.T.Iterate(func(k uint64, p *Partial) bool {
			if _, dup := out[k]; dup {
				t.Fatalf("key %d held by two tables", k)
			}
			d := groupDump{count: p.count, sum: p.sum, min: p.min, max: p.max, vals: p.AppendValues(tb.Ar, nil)}
			slices.Sort(d.vals)
			out[k] = d
			return true
		})
	}
	return out
}

// order lists every group of a partition set in iteration order.
func order(parts []Table) []uint64 {
	var keys []uint64
	for _, tb := range parts {
		if tb.T != nil {
			tb.T.Iterate(func(k uint64, _ *Partial) bool {
				keys = append(keys, k)
				return true
			})
		}
	}
	return keys
}

// checkLayout fails unless every key of parts sits in its PartitionIndex
// partition.
func checkLayout(t *testing.T, label string, parts []Table, bits int) {
	t.Helper()
	for q, tb := range parts {
		if tb.T == nil {
			continue
		}
		tb.T.Iterate(func(k uint64, _ *Partial) bool {
			if got := radix.PartitionIndex(k, bits); got != q {
				t.Fatalf("%s: key %d in partition %d, belongs in %d", label, k, q, got)
			}
			return true
		})
	}
}

// randRows returns n rows over keys drawn from pick, values random.
func randRows(rng *rand.Rand, n int, pick func() uint64) (keys, vals []uint64) {
	keys, vals = make([]uint64, n), make([]uint64, n)
	for i := range keys {
		keys[i], vals[i] = pick(), rng.Uint64()%1000
	}
	return keys, vals
}

// TestFold checks agg.Fold against a single-table MergeTable reference at
// several fan-outs, with and without value multisets, at several worker
// counts: the same groups with the same state, every key in its
// PartitionIndex partition, partitions no source touched shared with the
// base by pointer, base and sources untouched — and the same tables in
// the same iteration order at every worker count. With an ownership mask
// the same groups land, owned partitions fold in place, and partitions
// the caller does not own are left as they were.
func TestFold(t *testing.T) {
	for _, bits := range []int{0, 1, 4, 6} {
		for _, holistic := range []bool{false, true} {
			rng := rand.New(rand.NewSource(int64(bits*10 + 7)))
			// Base keys span the domain; source keys avoid partition 0 when
			// there is more than one, so some base partitions stay untouched.
			base := make([]Table, 1<<bits)
			bk, bv := randRows(rng, 5000, func() uint64 { return rng.Uint64() % 3000 })
			Absorb(base, bk, bv, holistic, 1)
			srcKey := func() uint64 {
				for {
					k := rng.Uint64() % 4000
					if bits == 0 || radix.PartitionIndex(k, bits) != 0 {
						return k
					}
				}
			}
			srcs := make([]Table, 4) // srcs[2] stays the zero Table
			for i := range srcs {
				if i == 2 {
					continue
				}
				srcs[i] = NewTable(0)
				k, v := randRows(rng, 2000, srcKey)
				AbsorbRows(srcs[i], k, v, holistic)
			}
			baseBefore, srcsBefore := dumpTables(t, base...), make([]map[uint64]groupDump, len(srcs))
			for i, s := range srcs {
				srcsBefore[i] = dumpTables(t, s)
			}

			ref := NewTable(0)
			for _, tb := range append(slices.Clone(base), srcs...) {
				if tb.T != nil {
					MergeTable(ref, tb, holistic)
				}
			}
			want := dumpTables(t, ref)

			touched := make([]bool, len(base))
			for _, s := range srcs {
				for k := range dumpTables(t, s) {
					touched[radix.PartitionIndex(k, bits)] = true
				}
			}

			var firstOrder []uint64
			for _, workers := range []int{1, 2, 8} {
				label := fmt.Sprintf("bits=%d holistic=%v workers=%d", bits, holistic, workers)
				got, n := Fold(base, srcs, nil, holistic, workers)
				if n != 0 {
					t.Fatalf("%s: copy-on-write fold reports %d partitions in place", label, n)
				}
				if len(got) != len(base) {
					t.Fatalf("%s: %d partitions, want %d", label, len(got), len(base))
				}
				checkLayout(t, label, got, bits)
				if g := dumpTables(t, got...); !reflect.DeepEqual(g, want) {
					t.Fatalf("%s: fold differs from the MergeTable reference (%d vs %d groups)", label, len(g), len(want))
				}
				if bits > 0 && (got[0].T != base[0].T || got[0].Ar != base[0].Ar) {
					t.Fatalf("%s: untouched partition 0 was copied, want shared", label)
				}
				if !reflect.DeepEqual(dumpTables(t, base...), baseBefore) {
					t.Fatalf("%s: base mutated", label)
				}
				for i, s := range srcs {
					if !reflect.DeepEqual(dumpTables(t, s), srcsBefore[i]) {
						t.Fatalf("%s: source %d mutated", label, i)
					}
				}
				if o := order(got); firstOrder == nil {
					firstOrder = o
				} else if !slices.Equal(o, firstOrder) {
					t.Fatalf("%s: iteration order differs from workers=1", label)
				}

				// In place: a fresh copy of the base with every even partition
				// owned. Owned touched partitions keep their table, the rest
				// are copied, and no partition the caller does not own changes.
				ib := make([]Table, len(base))
				Absorb(ib, bk, bv, holistic, 1)
				own := make([]bool, len(ib))
				var shared []Table
				for q := range own {
					if own[q] = q%2 == 0; !own[q] {
						shared = append(shared, ib[q])
					}
				}
				sharedBefore := dumpTables(t, shared...)
				got, n = Fold(ib, srcs, own, holistic, workers)
				checkLayout(t, label+" in place", got, bits)
				if g := dumpTables(t, got...); !reflect.DeepEqual(g, want) {
					t.Fatalf("%s: in-place fold differs from the MergeTable reference", label)
				}
				wantN := 0
				for q := range got {
					switch inPlace := own[q] && ib[q].T != nil; {
					case touched[q] && inPlace:
						wantN++
						if got[q].T != ib[q].T || got[q].Ar != ib[q].Ar {
							t.Fatalf("%s: owned partition %d was copied, want folded in place", label, q)
						}
					case touched[q] && got[q].T == ib[q].T:
						t.Fatalf("%s: partition %d not owned but folded in place", label, q)
					}
				}
				if n != wantN {
					t.Fatalf("%s: %d partitions reported in place, want %d", label, n, wantN)
				}
				if !reflect.DeepEqual(dumpTables(t, shared...), sharedBefore) {
					t.Fatalf("%s: a partition the caller does not own was mutated", label)
				}
			}
		}
	}
}

// TestAbsorb checks agg.Absorb against AbsorbRows into one table: the same
// groups with the same state, every key in its PartitionIndex partition,
// and tables allocated only for partitions that received rows.
func TestAbsorb(t *testing.T) {
	for _, bits := range []int{0, 1, 4, 6} {
		for _, holistic := range []bool{false, true} {
			for _, workers := range []int{1, 2, 8} {
				label := fmt.Sprintf("bits=%d holistic=%v workers=%d", bits, holistic, workers)
				rng := rand.New(rand.NewSource(int64(bits)))
				ref := NewTable(0)
				parts := make([]Table, 1<<bits)
				// Two batches: the second lands on tables the first allocated.
				for batch := 0; batch < 2; batch++ {
					k, v := randRows(rng, 3000, func() uint64 { return rng.Uint64() % 40 })
					AbsorbRows(ref, k, v, holistic)
					Absorb(parts, k, v, holistic, workers)
				}
				checkLayout(t, label, parts, bits)
				if !reflect.DeepEqual(dumpTables(t, parts...), dumpTables(t, ref)) {
					t.Fatalf("%s: absorb differs from the AbsorbRows reference", label)
				}
				for q, tb := range parts {
					if tb.T != nil && tb.Len() == 0 {
						t.Fatalf("%s: partition %d allocated without rows", label, q)
					}
				}
			}
		}
	}
}

// TestPartBitsRejectsBadSets: a partition set whose length is not a power
// of two within the partitioner's fan-out is a caller bug, caught before
// any row is routed.
func TestPartBitsRejectsBadSets(t *testing.T) {
	for _, n := range []int{0, 3, 1 << (MaxPartBits + 1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("partBits(len %d) did not panic", n)
				}
			}()
			partBits(make([]Table, n))
		}()
	}
	if b := partBits(make([]Table, 1<<MaxPartBits)); b != MaxPartBits {
		t.Fatalf("partBits(2^%d) = %d", MaxPartBits, b)
	}
}
