package agg

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"memagg/internal/arena"
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

// rowsDump folds rows into ref the naive way, one map entry per key: the
// independent reference for the absorb kernel.
func rowsDump(ref map[uint64]groupDump, keys, vals []uint64, holistic bool) {
	for i, k := range keys {
		v := vals[i]
		d, ok := ref[k]
		if !ok {
			d.min, d.max = v, v
		}
		d.count++
		d.sum += v
		d.min, d.max = min(d.min, v), max(d.max, v)
		if holistic {
			d.vals = append(d.vals, v)
			slices.Sort(d.vals)
		}
		ref[k] = d
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

// oneTableSources wraps each table as a one-table Fold source: a
// partition set of fan-out 0, which Fold splits across every base
// partition.
func oneTableSources(tables []Table) [][]Table {
	srcs := make([][]Table, len(tables))
	for i := range tables {
		srcs[i] = tables[i : i+1]
	}
	return srcs
}

// TestFold checks agg.Fold of one-table sources against a single-table
// MergeTable reference at several fan-outs, with and without value
// multisets, at several worker counts: the same groups with the same
// state, every key in its PartitionIndex partition, partitions no source
// touched shared with the base by pointer, base and sources untouched —
// and the same tables in the same iteration order at every worker count. With an ownership mask
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
			AbsorbParts(base, nil, nil, bk, bv, holistic, 1)
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
				AbsorbParts(srcs[i:i+1], nil, nil, k, v, holistic, 1)
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
				got, n := Fold(base, oneTableSources(srcs), nil, holistic, workers)
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
				AbsorbParts(ib, nil, nil, bk, bv, holistic, 1)
				own := make([]bool, len(ib))
				var shared []Table
				for q := range own {
					if own[q] = q%2 == 0; !own[q] {
						shared = append(shared, ib[q])
					}
				}
				sharedBefore := dumpTables(t, shared...)
				got, n = Fold(ib, oneTableSources(srcs), own, holistic, workers)
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

// TestAbsorb checks AbsorbParts with no arena passed in — each new
// partition on an arena of its own — against a row-by-row reference over
// a few heavily repeated keys at workers 1/2/8: the same groups with the
// same state, every key in its PartitionIndex partition, and tables
// allocated only for partitions that received rows.
func TestAbsorb(t *testing.T) {
	for _, bits := range []int{0, 1, 4, 6} {
		for _, holistic := range []bool{false, true} {
			for _, workers := range []int{1, 2, 8} {
				label := fmt.Sprintf("bits=%d holistic=%v workers=%d", bits, holistic, workers)
				rng := rand.New(rand.NewSource(int64(bits)))
				ref := map[uint64]groupDump{}
				parts := make([]Table, 1<<bits)
				// Two batches: the second lands on tables the first allocated.
				for batch := 0; batch < 2; batch++ {
					k, v := randRows(rng, 3000, func() uint64 { return rng.Uint64() % 40 })
					rowsDump(ref, k, v, holistic)
					AbsorbParts(parts, nil, nil, k, v, holistic, workers)
				}
				checkLayout(t, label, parts, bits)
				if !reflect.DeepEqual(dumpTables(t, parts...), ref) {
					t.Fatalf("%s: absorb differs from the row-by-row reference", label)
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

// TestFoldPartitionSets: Fold over partition-set sources equals Fold over
// the same groups given as one-table sources — sources at the base's
// fan-out (folded partition q into q), sources coarser than the base
// (each partition split across the base partitions it covers), and a mix
// of all three — at several fan-outs, with and without value multisets,
// at workers 1/2/8, copy-on-write (own nil) and in place (own all true).
// A source finer than the base is a caller bug.
func TestFoldPartitionSets(t *testing.T) {
	for _, bits := range []int{0, 1, 4, 6, 9} {
		for _, holistic := range []bool{false, true} {
			rng := rand.New(rand.NewSource(int64(bits*10 + 3)))
			bk, bv := randRows(rng, 4000, func() uint64 { return rng.Uint64() % 3000 })
			freshBase := func() []Table {
				base := make([]Table, 1<<bits)
				AbsorbParts(base, nil, nil, bk, bv, holistic, 1)
				return base
			}
			coarse := max(bits-3, 0) // a fan-out below the base's where there is one
			const nsrc = 4
			sets, coarser := make([][]Table, nsrc), make([][]Table, nsrc)
			tables := make([]Table, nsrc)
			for i := range sets {
				k, v := randRows(rng, 1500, func() uint64 { return rng.Uint64() % 5000 })
				if i == 0 {
					k[0] = 0
				}
				sets[i] = make([]Table, 1<<bits)
				AbsorbParts(sets[i], arena.New(), nil, k, v, holistic, 1)
				coarser[i] = make([]Table, 1<<coarse)
				AbsorbParts(coarser[i], arena.New(), nil, k, v, holistic, 1)
				tables[i] = NewTable(0)
				AbsorbParts(tables[i:i+1], nil, nil, k, v, holistic, 1)
			}
			mixed := oneTableSources(tables)
			mixed[1], mixed[3] = sets[1], coarser[3]
			for _, workers := range []int{1, 2, 8} {
				for _, owned := range []bool{false, true} {
					label := fmt.Sprintf("bits=%d holistic=%v workers=%d owned=%v", bits, holistic, workers, owned)
					fold := func(srcs [][]Table) map[uint64]groupDump {
						base := freshBase()
						var own []bool
						if owned {
							own = make([]bool, len(base))
							for q := range own {
								own[q] = true
							}
						}
						got, _ := Fold(base, srcs, own, holistic, workers)
						checkLayout(t, label, got, bits)
						return dumpTables(t, got...)
					}
					want := fold(oneTableSources(tables))
					if got := fold(sets); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: partition-set sources fold differently from one-table sources (%d vs %d groups)", label, len(got), len(want))
					}
					if got := fold(coarser); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: sources at fan-out %d fold differently from one-table sources", label, coarse)
					}
					if got := fold(mixed); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: mixed sources fold differently from one-table sources", label)
					}
				}
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Fold of an 8-table source into a 4-partition set did not panic")
		}
	}()
	Fold(make([]Table, 4), [][]Table{make([]Table, 8)}, nil, false, 1)
}

// TestAbsorbParts checks agg.AbsorbParts against a row-by-row reference
// at workers 1/2/8: every group in its PartitionIndex partition with the
// same state and value multiset, key 0 included, and tables allocated
// only for partitions that received rows. One worker buffers every new
// partition's values in the one arena passed in; more give each new
// partition an arena of its own. A set whose partitions already have
// tables, each on its own arena, keeps every value in its partition's
// arena and none in the one passed in. And a set seeded from another's
// group counts starts every partition large enough to hold that count
// without a rehash.
func TestAbsorbParts(t *testing.T) {
	for _, bits := range []int{0, 1, 6, MaxPartBits} {
		for _, holistic := range []bool{false, true} {
			for _, workers := range []int{1, 2, 8} {
				if holistic && workers > 1 && bits > 6 {
					continue // an arena per partition pins 512 KiB each
				}
				label := fmt.Sprintf("bits=%d holistic=%v workers=%d", bits, holistic, workers)
				rng := rand.New(rand.NewSource(int64(bits) + 11))
				var ar *arena.Arena // AbsorbParts' arena: shared at one worker only
				if workers == 1 {
					ar = arena.New()
				}
				ref := map[uint64]groupDump{}
				parts := make([]Table, 1<<bits)
				// Two batches, the first with a short tail block and key 0: the
				// second lands on tables the first allocated.
				for batch, n := range []int{3001, 6000} {
					k, v := randRows(rng, n, func() uint64 { return rng.Uint64() % 20000 })
					if batch == 0 {
						k[0], k[n-1] = 0, 0
					}
					rowsDump(ref, k, v, holistic)
					AbsorbParts(parts, ar, nil, k, v, holistic, workers)
				}
				checkLayout(t, label, parts, bits)
				if !reflect.DeepEqual(dumpTables(t, parts...), ref) {
					t.Fatalf("%s: AbsorbParts differs from the row-by-row reference", label)
				}
				seed := make([]int, len(parts))
				arenas := map[*arena.Arena]int{}
				for q, tb := range parts {
					seed[q] = tb.Len()
					if tb.T == nil {
						continue
					}
					if tb.Len() == 0 {
						t.Fatalf("%s: partition %d allocated without rows", label, q)
					}
					if ar != nil && tb.Ar != ar {
						t.Fatalf("%s: partition %d holds its values outside the shared arena", label, q)
					}
					if p, dup := arenas[tb.Ar]; dup && ar == nil {
						t.Fatalf("%s: partitions %d and %d share an arena", label, p, q)
					}
					arenas[tb.Ar] = q
				}

				// Tables that exist take the values into their own arenas.
				if bits <= 6 {
					own := make([]Table, len(parts))
					for q := range own {
						own[q] = NewTable(0)
					}
					stray := arena.New()
					if workers > 1 {
						stray = nil
					}
					ref := map[uint64]groupDump{}
					k, v := randRows(rng, 5000, func() uint64 { return rng.Uint64() % 20000 })
					rowsDump(ref, k, v, holistic)
					AbsorbParts(own, stray, nil, k, v, holistic, workers)
					if stray != nil && stray.UsedWords() != 0 {
						t.Fatalf("%s: %d words of values landed outside their partitions' arenas", label, stray.UsedWords())
					}
					if !reflect.DeepEqual(dumpTables(t, own...), ref) {
						t.Fatalf("%s: AbsorbParts into existing tables differs from the row-by-row reference", label)
					}
				}

				// Too few rows to grow any table: its size is the seed's.
				again := make([]Table, len(parts))
				k, v := randRows(rng, 64, func() uint64 { return rng.Uint64() % 20000 })
				AbsorbParts(again, nil, seed, k, v, holistic, workers)
				for q, tb := range again {
					if tb.T != nil && tb.T.Cap()*7/8 < seed[q] {
						t.Fatalf("%s: partition %d seeded for %d groups starts at %d slots", label, q, seed[q], tb.T.Cap())
					}
				}
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("AbsorbParts on a shared arena at 2 workers did not panic")
		}
	}()
	AbsorbParts(make([]Table, 4), arena.New(), nil, []uint64{1}, []uint64{1}, true, 2)
}

// TestFoldSizesForLargestSource: a copied partition is sized for the base
// partition plus the largest source partition, not the sum of the
// sources: eight folds of one source share all their keys, so the fold of
// eight copies into an empty set gets the same tables as the fold of one.
func TestFoldSizesForLargestSource(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	src := make([]Table, 1<<4)
	k, v := randRows(rng, 20000, func() uint64 { return rng.Uint64() % 5000 })
	AbsorbParts(src, nil, nil, k, v, false, 1)
	one, _ := Fold(make([]Table, len(src)), [][]Table{src}, nil, false, 1)
	srcs := make([][]Table, 8)
	for i := range srcs {
		srcs[i] = src
	}
	eight, _ := Fold(make([]Table, len(src)), srcs, nil, false, 1)
	for q := range one {
		if got, want := eight[q].T.Cap(), one[q].T.Cap(); got != want {
			t.Fatalf("partition %d: fold of 8 copies has %d slots, fold of one %d", q, got, want)
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
