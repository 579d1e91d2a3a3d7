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

// setSources wraps each partition set as a Fold source.
func setSources(sets ...[]Table) []Source {
	srcs := make([]Source, len(sets))
	for i, set := range sets {
		srcs[i] = Source{Parts: set}
	}
	return srcs
}

// TestFold checks agg.Fold of partition-set sources at the base's fan-out
// against a single-table MergeTable reference of the same groups at
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
			AbsorbParts(base, nil, nil, bk, bv, holistic)
			srcKey := func() uint64 {
				for {
					k := rng.Uint64() % 4000
					if bits == 0 || radix.PartitionIndex(k, bits) != 0 {
						return k
					}
				}
			}
			// Each source as one table for the reference and as a partition
			// set at the base's fan-out for Fold; source 2 stays empty.
			srcs, sets := make([]Table, 4), make([][]Table, 4)
			for i := range srcs {
				sets[i] = make([]Table, 1<<bits)
				if i == 2 {
					continue
				}
				srcs[i] = NewTable(0)
				k, v := randRows(rng, 2000, srcKey)
				AbsorbParts(srcs[i:i+1], nil, nil, k, v, holistic)
				AbsorbParts(sets[i], nil, nil, k, v, holistic)
			}
			baseBefore, srcsBefore := dumpTables(t, base...), make([]map[uint64]groupDump, len(sets))
			for i, set := range sets {
				srcsBefore[i] = dumpTables(t, set...)
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
				got, n := Fold(base, setSources(sets...), nil, holistic, workers)
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
				for i, set := range sets {
					if !reflect.DeepEqual(dumpTables(t, set...), srcsBefore[i]) {
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
				AbsorbParts(ib, nil, nil, bk, bv, holistic)
				own := make([]bool, len(ib))
				var shared []Table
				for q := range own {
					if own[q] = q%2 == 0; !own[q] {
						shared = append(shared, ib[q])
					}
				}
				sharedBefore := dumpTables(t, shared...)
				got, n = Fold(ib, setSources(sets...), own, holistic, workers)
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
// a few heavily repeated keys: the same groups with the same state, every
// key in its PartitionIndex partition, and tables allocated only for
// partitions that received rows.
func TestAbsorb(t *testing.T) {
	for _, bits := range []int{0, 1, 4, 6} {
		for _, holistic := range []bool{false, true} {
			label := fmt.Sprintf("bits=%d holistic=%v", bits, holistic)
			rng := rand.New(rand.NewSource(int64(bits)))
			ref := map[uint64]groupDump{}
			parts := make([]Table, 1<<bits)
			// Two batches: the second lands on tables the first allocated.
			for batch := 0; batch < 2; batch++ {
				k, v := randRows(rng, 3000, func() uint64 { return rng.Uint64() % 40 })
				rowsDump(ref, k, v, holistic)
				AbsorbParts(parts, nil, nil, k, v, holistic)
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

// TestFoldPartitionSets: Fold over partition-set and run sources equals
// the row-by-row reference over the same rows — sets at the base's
// fan-out (folded partition q into q), runs at the base's fan-out, runs
// finer than the base (several run partitions into one base partition:
// the pane case), runs at fan-outs 8 and 12 (MergeBits past the delta
// cap), and a mix of sets and runs — at several fan-outs, with and
// without value multisets, at workers 1/2/8, copy-on-write (own nil) and
// in place (own all true). Runs are scattered from two column segments
// each. A set source at any other fan-out than the base's, or a run
// coarser than it, is a caller bug.
func TestFoldPartitionSets(t *testing.T) {
	for _, bits := range []int{0, 1, 4, 6, 9} {
		for _, holistic := range []bool{false, true} {
			rng := rand.New(rand.NewSource(int64(bits*10 + 3)))
			bk, bv := randRows(rng, 4000, func() uint64 { return rng.Uint64() % 3000 })
			freshBase := func() []Table {
				base := make([]Table, 1<<bits)
				AbsorbParts(base, nil, nil, bk, bv, holistic)
				return base
			}
			want := map[uint64]groupDump{}
			rowsDump(want, bk, bv, holistic)
			runBits := []int{max(bits, 1), min(bits+3, MaxPartBits), MaxPartBits}
			if bits <= 8 {
				runBits = append(runBits, 8)
			}
			const nsrc = 4
			sets := make([][]Table, nsrc)
			runs := make([][]Source, len(runBits)) // runs[j][i]: source i at runBits[j]
			for j := range runs {
				runs[j] = make([]Source, nsrc)
			}
			for i := range sets {
				k, v := randRows(rng, 1500, func() uint64 { return rng.Uint64() % 5000 })
				if i == 0 {
					k[0] = 0
				}
				rowsDump(want, k, v, holistic)
				sets[i] = make([]Table, 1<<bits)
				AbsorbParts(sets[i], arena.New(), nil, k, v, holistic)
				cut := 1 + i*300 // the split between the two segments, past a short block
				for j, rb := range runBits {
					runs[j][i] = Source{Rows: ScatterRows([][]uint64{k[:cut], k[cut:]}, [][]uint64{v[:cut], v[cut:]}, rb, 1)}
				}
			}
			mixed := setSources(sets...)
			mixed[2], mixed[3] = runs[1][2], runs[0][3]
			cases := []struct {
				name string
				srcs []Source
			}{
				{"partition-set sources", setSources(sets...)},
				{"mixed sources", mixed},
			}
			for j, rb := range runBits {
				cases = append(cases, struct {
					name string
					srcs []Source
				}{fmt.Sprintf("runs at fan-out %d", rb), runs[j]})
			}
			for _, workers := range []int{1, 2, 8} {
				for _, owned := range []bool{false, true} {
					label := fmt.Sprintf("bits=%d holistic=%v workers=%d owned=%v", bits, holistic, workers, owned)
					for _, c := range cases {
						base := freshBase()
						var own []bool
						if owned {
							own = make([]bool, len(base))
							for q := range own {
								own[q] = true
							}
						}
						got, _ := Fold(base, c.srcs, own, holistic, workers)
						checkLayout(t, label, got, bits)
						if g := dumpTables(t, got...); !reflect.DeepEqual(g, want) {
							t.Fatalf("%s: %s fold differently from the row-by-row reference (%d vs %d groups)", label, c.name, len(g), len(want))
						}
					}
				}
			}
		}
	}
	for i, bad := range []Source{
		{Parts: make([]Table, 8)}, // a finer set
		{Parts: make([]Table, 2)}, // a coarser set
		{Parts: make([]Table, 1)}, // a one-table set
		{Rows: ScatterRows([][]uint64{{1, 2, 3}}, [][]uint64{{1, 2, 3}}, 1, 1)}, // a coarser run
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Fold of bad source %d into a set at fan-out 2 did not panic", i)
				}
			}()
			Fold(make([]Table, 4), []Source{bad}, nil, false, 1)
		}()
	}
}

// TestFoldRunsInPlace: a run source folds into the partitions the caller
// owns in place, rebuilds the rest copy-on-write, shares untouched
// partitions with the base by pointer, and never mutates the run.
func TestFoldRunsInPlace(t *testing.T) {
	const bits = 4
	rng := rand.New(rand.NewSource(9))
	bk, bv := randRows(rng, 3000, func() uint64 { return rng.Uint64() % 2000 })
	k, v := randRows(rng, 2000, func() uint64 {
		for {
			if k := rng.Uint64() % 4000; radix.PartitionIndex(k, bits) != 0 {
				return k
			}
		}
	})
	run := ScatterRows([][]uint64{k}, [][]uint64{v}, 8, 2)
	before := slices.Clone(run.Keys)
	want := map[uint64]groupDump{}
	rowsDump(want, bk, bv, true)
	rowsDump(want, k, v, true)
	base := make([]Table, 1<<bits)
	AbsorbParts(base, nil, nil, bk, bv, true)
	own := make([]bool, len(base))
	for q := range own {
		own[q] = q%2 == 1
	}
	baseBefore := slices.Clone(base)
	got, n := Fold(base, []Source{{Rows: run}}, own, true, 2)
	checkLayout(t, "runs in place", got, bits)
	if !reflect.DeepEqual(dumpTables(t, got...), want) {
		t.Fatal("run fold differs from the row-by-row reference")
	}
	if got[0] != baseBefore[0] {
		t.Fatal("untouched partition 0 was copied, want shared")
	}
	inPlace := 0
	for q := 1; q < len(got); q++ {
		if same := got[q].T == baseBefore[q].T; same != own[q] {
			t.Fatalf("partition %d: folded in place %v, owned %v", q, same, own[q])
		}
		if own[q] {
			inPlace++
		}
	}
	if n != inPlace {
		t.Fatalf("%d partitions reported in place, want %d", n, inPlace)
	}
	if !slices.Equal(run.Keys, before) {
		t.Fatal("run mutated")
	}
}

// TestAbsorbParts checks agg.AbsorbParts against a row-by-row reference:
// every group in its PartitionIndex partition with the same state and
// value multiset, key 0 included, and tables allocated only for
// partitions that received rows. With an arena passed in every new
// partition buffers its values there; with none each new partition gets
// an arena of its own. A set whose partitions already have tables, each
// on its own arena, keeps every value in its partition's arena and none
// in the one passed in. And a set seeded from another's group counts
// starts every partition large enough to hold that count without a
// rehash.
func TestAbsorbParts(t *testing.T) {
	for _, bits := range []int{0, 1, 6, MaxPartBits} {
		for _, holistic := range []bool{false, true} {
			for _, shared := range []bool{true, false} {
				if holistic && !shared && bits > 6 {
					continue // an arena per partition pins 512 KiB each
				}
				label := fmt.Sprintf("bits=%d holistic=%v shared=%v", bits, holistic, shared)
				rng := rand.New(rand.NewSource(int64(bits) + 11))
				var ar *arena.Arena // AbsorbParts' arena, when shared
				if shared {
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
					AbsorbParts(parts, ar, nil, k, v, holistic)
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
					ref := map[uint64]groupDump{}
					k, v := randRows(rng, 5000, func() uint64 { return rng.Uint64() % 20000 })
					rowsDump(ref, k, v, holistic)
					AbsorbParts(own, stray, nil, k, v, holistic)
					if stray.UsedWords() != 0 {
						t.Fatalf("%s: %d words of values landed outside their partitions' arenas", label, stray.UsedWords())
					}
					if !reflect.DeepEqual(dumpTables(t, own...), ref) {
						t.Fatalf("%s: AbsorbParts into existing tables differs from the row-by-row reference", label)
					}
				}

				// Too few rows to grow any table: its size is the seed's.
				again := make([]Table, len(parts))
				k, v := randRows(rng, 64, func() uint64 { return rng.Uint64() % 20000 })
				AbsorbParts(again, ar, seed, k, v, holistic)
				for q, tb := range again {
					if tb.T != nil && tb.T.Cap()*7/8 < seed[q] {
						t.Fatalf("%s: partition %d seeded for %d groups starts at %d slots", label, q, seed[q], tb.T.Cap())
					}
				}
			}
		}
	}
}

// TestFoldSizesForLargestSource: a copied partition is sized for the base
// partition plus the largest source partition, not the sum of the
// sources: eight folds of one source share all their keys, so the fold of
// eight copies into an empty set gets the same tables as the fold of one.
func TestFoldSizesForLargestSource(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	src := make([]Table, 1<<4)
	k, v := randRows(rng, 20000, func() uint64 { return rng.Uint64() % 5000 })
	AbsorbParts(src, nil, nil, k, v, false)
	one, _ := Fold(make([]Table, len(src)), setSources(src), nil, false, 1)
	srcs := make([][]Table, 8)
	for i := range srcs {
		srcs[i] = src
	}
	eight, _ := Fold(make([]Table, len(src)), setSources(srcs...), nil, false, 1)
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
