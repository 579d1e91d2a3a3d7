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
// raw rows by AbsorbParts, partial state by Fold, encoded groups by the
// group-run decoder.

// MaxPartBits bounds a partition set's fan-out at the batch Hash_RX
// partitioner's (radix.MaxBits); a checkpoint naming a larger one is
// refused.
const MaxPartBits = 12

// partBits returns the fan-out of a partition set. A length that is not a
// power of two in [1, 2^MaxPartBits] is a caller bug.
func partBits(parts []Table) int {
	n := len(parts)
	bits := mathbits.TrailingZeros(uint(n))
	if n == 0 || n&(n-1) != 0 || bits > MaxPartBits {
		panic(fmt.Sprintf("agg: partition set of %d tables", n))
	}
	return bits
}

// Fold folds the groups of srcs into the partition set base and returns
// the result as a set of base's length, plus the number of partitions
// folded in place. Each source is itself a partition set at a fan-out no
// larger than base's (a one-table source is the set of fan-out 0; a
// finer one is a caller bug), so source partition c holds exactly the
// groups of base partitions c<<d through (c+1)<<d - 1, d the difference
// in fan-out. A source at base's fan-out folds partition q into
// partition q as it stands, each source partition read in its own slot
// order; a coarser source is first split, one source partition at a
// time and partitions in parallel, into its 2^d base partitions (see
// split). srcs are never mutated; base partition q is mutated only when
// own[q] is set (the caller holds the only reference to it), and nil own
// means copy-on-write everywhere. Each partition folds independently
// across workers on the morsel partition cursor. A touched partition the
// caller owns takes the source groups straight into its table — Wen et
// al.'s update-in-place build; any other touched partition is rebuilt as
// a copy of the base partition plus those groups, sized for the base and
// the largest source partition (sources share most keys). Partitions that
// received no source groups are shared with base by pointer: a fold of a
// small delta rebuilds only the partitions it touches. withValues
// carries the value multisets along. The result's groups are a pure
// function of the inputs' contents, in place or not, and for a given
// mask its tables and their iteration order are the same at any worker
// count.
func Fold(base []Table, srcs [][]Table, own []bool, withValues bool, workers int) ([]Table, int) {
	bits := partBits(base)
	splits := make([]*split, len(srcs)) // nil: the source is at base's fan-out
	var jobs [][2]int                   // source, source partition
	for s, src := range srcs {
		sb := partBits(src)
		if sb > bits {
			panic(fmt.Sprintf("agg: fold of a %d-table source into a %d-partition set", len(src), len(base)))
		}
		if sb == bits {
			continue
		}
		splits[s] = newSplit(src, bits)
		for c, tb := range src {
			if tb.Len() > 0 {
				jobs = append(jobs, [2]int{s, c})
			}
		}
	}
	morsel.Parts(len(jobs), workers, func(_, j int) {
		s, c := jobs[j][0], jobs[j][1]
		splits[s].part(srcs[s][c], c, bits)
	})

	inPlace := func(q int) bool { return own != nil && own[q] && base[q].T != nil }
	parts := make([]Table, len(base))
	touched := make([]bool, len(base))
	morsel.Parts(len(base), workers, func(_, q int) {
		parts[q] = base[q] // untouched, or folded in place: the base's table
		most := 0
		for s, src := range srcs {
			if sp := splits[s]; sp != nil {
				most = max(most, sp.bounds[q+1]-sp.bounds[q])
			} else {
				most = max(most, src[q].Len())
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
		for s, src := range srcs {
			if sp := splits[s]; sp != nil {
				lo, hi := sp.bounds[q], sp.bounds[q+1]
				foldPart(parts[q], sp.keys[lo:hi], sp.ps[lo:hi], src[q>>sp.d].Ar, withValues)
			} else if src[q].T != nil {
				MergeTable(parts[q], src[q], withValues)
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

// split is a Fold source coarser than the base, its groups listed by base
// partition: base partition q's groups are keys[bounds[q]:bounds[q+1]]
// with their partials in ps, all from source partition q>>d. Source
// partition c's groups occupy the same range of the columns before and
// after the split, so partitions split independently.
type split struct {
	d      uint // fan-out difference
	keys   []uint64
	ps     []*Partial
	bounds []int // len 2^(source bits + d) + 1
}

// newSplit sizes the columns of src split to fan-out bits; every base
// partition starts empty at its source partition's offset.
func newSplit(src []Table, bits int) *split {
	d := uint(bits - partBits(src))
	sp := &split{d: d, bounds: make([]int, len(src)<<d+1)}
	off := 0
	for c, tb := range src {
		for q := c << d; q < (c+1)<<d; q++ {
			sp.bounds[q] = off
		}
		off += tb.Len()
	}
	sp.bounds[len(sp.bounds)-1] = off
	sp.keys, sp.ps = make([]uint64, off), make([]*Partial, off)
	return sp
}

// maxSub is the largest sub-partition index a split records; it must fit
// the uint16 the counting pass stores per group.
const maxSub uint16 = 1<<MaxPartBits - 1

// part splits source partition c (table tb) into its 2^d base partitions
// at fan-out bits: a counting pass records each group's sub-partition —
// the next d bits of its hash below the source's — and a placing pass
// writes key and partial into that sub-partition's range. The table is
// not mutated in between, so both passes see the same slot order, and
// within a base partition the groups keep it.
func (sp *split) part(tb Table, c, bits int) {
	shift, mask := uint(64-bits), uint64(1)<<sp.d-1
	sub := make([]uint16, 0, tb.Len()) // see maxSub
	cur := make([]int, 1<<sp.d)
	tb.T.Iterate(func(k uint64, _ *Partial) bool {
		b := uint16(hashtbl.Mix(k) >> shift & mask)
		sub = append(sub, b)
		cur[b]++
		return true
	})
	at := sp.bounds[c<<sp.d]
	for i, n := range cur {
		sp.bounds[c<<sp.d+i], cur[i] = at, at
		at += n
	}
	i := 0
	tb.T.Iterate(func(k uint64, p *Partial) bool {
		b := sub[i]
		i++
		sp.keys[cur[b]], sp.ps[cur[b]] = k, p
		cur[b]++
		return true
	})
}

// foldPart upserts the groups of one base partition's slice of a split
// (keys pk, partials pp, value lists in ar) into dst. The groups land via
// the same blocked-hash loop as the batch kernels: pk is a plain column,
// so the blocks need no staging (a short last block hashes key by key).
func foldPart(dst Table, pk []uint64, pp []*Partial, ar *arena.Arena, withValues bool) {
	var h [hashBatch]uint64
	for j := 0; j < len(pk); j += hashBatch {
		bk := pk[j:min(j+hashBatch, len(pk))]
		if len(bk) == hashBatch {
			mixBatch(&h, bk)
		} else {
			for i, k := range bk {
				h[i] = hashtbl.Mix(k)
			}
		}
		for i, k := range bk {
			p := pp[j+i]
			np := dst.T.UpsertH(k, h[i])
			np.Merge(p)
			if withValues {
				np.MergeValues(dst.Ar, p, ar)
			}
		}
	}
}

// AbsorbParts folds raw rows (vals[i] belongs to keys[i], equal length)
// into the partition set parts in place, routing each row to partition
// radix.PartitionIndex(key, bits) — the top bits of the hash its probe
// computes anyway, so routing costs one shift per row and there is no
// scatter pass. It is the one absorb kernel: a block of hashBatch Mix
// hashes is filled first, then probed with UpsertH, exactly like the
// lpBuild* kernels, so the hash multiplies of a block overlap each other
// and the probes' dependent cache misses. A partition's table is created
// the first time a row lands in it, with room for seed[q] groups (nil
// seed: the table's minimum), on the arena ar (nil: an arena of its own);
// a row's values go to its partition's arena. More than one worker each
// own a contiguous range of partitions and probe only the rows that route
// into it. No two may write one arena, so ar must then be nil and the
// set's tables must not share arenas. Only for a set nobody else can see
// yet: it mutates the tables.
func AbsorbParts(parts []Table, ar *arena.Arena, seed []int, keys, vals []uint64, holistic bool, workers int) {
	workers = max(1, min(workers, len(parts)))
	if workers > 1 && ar != nil {
		panic("agg: AbsorbParts on a shared arena at more than one worker")
	}
	morsel.Parts(workers, workers, func(_, w int) {
		absorbRange(parts, ar, seed, keys, vals, holistic, w*len(parts)/workers, (w+1)*len(parts)/workers)
	})
}

// absorbRange is AbsorbParts over the rows that route to partitions
// [lo, hi); the others are hashed and skipped.
func absorbRange(parts []Table, ar *arena.Arena, seed []int, keys, vals []uint64, holistic bool, lo, hi int) {
	shift := uint(64 - partBits(parts)) // a shift of 64 yields partition 0
	first, span := uint64(lo), uint64(hi-lo)
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
			q := h[j] >> shift
			if q-first >= span {
				continue
			}
			tb := &parts[q]
			if tb.T == nil {
				n := 0
				if seed != nil {
					n = seed[q]
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
