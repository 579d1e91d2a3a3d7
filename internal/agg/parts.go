package agg

import (
	"fmt"
	mathbits "math/bits"

	"memagg/internal/arena"
	"memagg/internal/hashtbl"
	"memagg/internal/morsel"
)

// Partition sets — the one partitioned-table shape. A partition set is a
// []Table of length 2^bits in which partition q holds exactly the groups
// whose radix.PartitionIndex(key, bits) is q (a partition with no groups is
// the zero Table); bits is recovered from the length, so no caller passes
// it. Disjointness is what lets partitions be built, merged and scanned
// independently and in parallel — the Hash_RX discipline — and internal/agg
// is the only place that decides which partition a row or group goes to:
// raw rows by AbsorbParts and ScatterRows, partial state by Fold, encoded
// groups by the group-run decoder.

// MaxPartBits bounds a partition set's fan-out at the batch Hash_RX
// partitioner's (radix.MaxBits); a checkpoint naming a larger one is
// refused.
const MaxPartBits = 12

// partBits returns the fan-out of a partition set.
func partBits(parts []Table) int { return fanOut(len(parts)) }

// fanOut returns the fan-out of n partitions. An n that is not a power of
// two in [1, 2^MaxPartBits] is a caller bug.
func fanOut(n int) int {
	bits := mathbits.TrailingZeros(uint(n))
	if n == 0 || n&(n-1) != 0 || bits > MaxPartBits {
		panic(fmt.Sprintf("agg: %d partitions", n))
	}
	return bits
}

// Source is one input of Fold: a partition set of aggregated groups
// (Parts) or a run of raw rows (Rows, see ScatterRows). Exactly one is
// set.
type Source struct {
	Parts []Table
	Rows  *Rows
}

// Fold folds srcs into the partition set base and returns the result as a
// set of base's length, plus the number of partitions folded in place. It
// is the one way rows or groups enter a built partition set: the stream's
// merges and snapshot folds, continuous-view pane settles and window
// reads, WAL replay and the cluster router's gather all go through it.
//
// Every source is partitioned like base, so partition q of the result
// takes only its own share of each source. A partition-set source sits
// at base's fan-out and folds partition q into partition q as it stands,
// read in its own slot order. A run source has a fan-out no smaller than
// base's, d bits more, so partition q takes the run's partitions q<<d
// through (q+1)<<d - 1, one contiguous stretch of rows, observed row by
// row where a set's groups are merged (see foldRows). A set at any other
// fan-out, or a coarser run, is a caller bug.
//
// srcs are never mutated; base partition q is mutated only when own[q] is
// set (the caller holds the only reference to it), and nil own means
// copy-on-write everywhere. Each partition folds independently across
// workers on the morsel partition cursor. A touched partition the caller
// owns takes the source groups straight into its table — Wen et al.'s
// update-in-place build; any other touched partition is rebuilt as a copy
// of the base partition plus those groups, sized for the base and the
// largest source partition (sources share most keys; a run counts its
// rows). Partitions that received nothing are shared with base by
// pointer: a fold of a small delta rebuilds only the partitions it
// touches. withValues carries the value multisets along. The result's
// groups are a pure function of the inputs' contents, in place or not,
// and for a given mask its tables and their iteration order are the same
// at any worker count.
func Fold(base []Table, srcs []Source, own []bool, withValues bool, workers int) ([]Table, int) {
	bits := partBits(base)
	for _, src := range srcs {
		if src.Rows != nil {
			if src.Rows.bits() < bits {
				panic(fmt.Sprintf("agg: fold of a %d-partition run into a %d-partition set", len(src.Rows.Bounds)-1, len(base)))
			}
		} else if partBits(src.Parts) != bits {
			panic(fmt.Sprintf("agg: fold of a %d-table source into a %d-partition set", len(src.Parts), len(base)))
		}
	}

	inPlace := func(q int) bool { return own != nil && own[q] && base[q].T != nil }
	parts := make([]Table, len(base))
	touched := make([]bool, len(base))
	morsel.Parts(len(base), workers, func(_, q int) {
		parts[q] = base[q] // untouched, or folded in place: the base's table
		most := 0
		for _, src := range srcs {
			if src.Rows != nil {
				lo, hi := src.Rows.span(q, bits)
				most = max(most, hi-lo)
			} else {
				most = max(most, src.Parts[q].Len())
			}
		}
		if most == 0 {
			return
		}
		touched[q] = true
		if !inPlace(q) {
			parts[q] = NewTable(base[q].Len() + most)
			if base[q].T != nil {
				MergeTable(parts[q], base[q], withValues)
			}
		}
		for _, src := range srcs {
			switch {
			case src.Rows != nil:
				lo, hi := src.Rows.span(q, bits)
				foldRows(parts[q], src.Rows.Keys[lo:hi], src.Rows.Vals[lo:hi], withValues)
			case src.Parts[q].T != nil:
				MergeTable(parts[q], src.Parts[q], withValues)
			}
		}
	})
	n := 0
	for q := range parts {
		if touched[q] && inPlace(q) {
			n++
		}
	}
	return parts, n
}

// AbsorbParts folds raw rows (vals[i] belongs to keys[i], equal length)
// into the partition set parts in place, routing each row to partition
// radix.PartitionIndex(key, bits) — the top bits of the hash its probe
// computes anyway, so routing costs one shift per row and there is no
// scatter pass. It is the absorb kernel of a stream's table deltas: a
// block of hashBatch Mix hashes is filled first, then probed with
// UpsertH, exactly like the lpBuild* kernels, so the hash multiplies of a
// block overlap each other and the probes' dependent cache misses. A
// partition's table is created the first time a row lands in it, with
// room for seed[q] groups (nil seed: the table's minimum), on the arena
// ar (nil: an arena of its own); a row's values go to its partition's
// arena. Only for a set nobody else can see yet: it mutates the tables.
// Rows headed for a set somebody may share go through Fold as a run.
func AbsorbParts(parts []Table, ar *arena.Arena, seed []int, keys, vals []uint64, holistic bool) {
	shift := uint(64 - partBits(parts)) // a shift of 64 yields partition 0
	var h [hashBatch]uint64
	for i := 0; i < len(keys); i += hashBatch {
		bk := keys[i:min(i+hashBatch, len(keys))]
		bv := vals[i : i+len(bk)]
		if len(bk) == hashBatch {
			mixBatch(&h, bk)
		} else {
			for j, k := range bk {
				h[j] = hashtbl.Mix(k)
			}
		}
		for j, k := range bk {
			tb := &parts[h[j]>>shift]
			if tb.T == nil {
				n := 0
				if seed != nil {
					n = seed[h[j]>>shift]
				}
				*tb = Table{T: hashtbl.NewLinearProbe[Partial](n), Ar: ar}
				if ar == nil {
					tb.Ar = arena.New()
				}
			}
			p := tb.T.UpsertH(k, h[j])
			p.Observe(bv[j])
			if holistic {
				p.Buffer(tb.Ar, bv[j])
			}
		}
	}
}
