package agg

import (
	"fmt"
	mathbits "math/bits"

	"memagg/internal/hashtbl"
	"memagg/internal/morsel"
	"memagg/internal/radix"
)

// Partition sets — the one partitioned-table shape. A partition set is a
// []Table of length 2^bits in which partition q holds exactly the groups
// whose radix.PartitionIndex(key, bits) is q (a partition with no groups is
// the zero Table); bits is recovered from the length, so no caller passes
// it. Disjointness is what lets partitions be built, merged and scanned
// independently and in parallel — the Hash_RX discipline — and this file
// is the only place that decides which partition a row or group goes to:
// the stream's base generations and snapshot folds, WAL replay, view
// windows and the group-run decoder all build their sets here.

// MaxPartBits bounds a partition set's fan-out: the radix partitioner
// clamps past it, so a larger set could not be routed consistently.
const MaxPartBits = radix.MaxBits

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

// scatter is the Hash_RX partitioner at a set's fan-out; a set of one
// partition (bits 0, below radix.Partition's clamp) takes the rows as they
// are.
func scatter(keys, vals []uint64, bits, workers int) *radix.Partitioned {
	if bits == 0 {
		return &radix.Partitioned{Keys: keys, Vals: vals, Bounds: []int{0, len(keys)}}
	}
	return radix.Partition(keys, vals, bits, workers)
}

// Fold folds the groups of srcs (plain tables, any layout) into the
// partition set base and returns the result as a set of base's length,
// plus the number of partitions folded in place. srcs are never mutated;
// base partition q is mutated only when own[q] is set (the caller holds
// the only reference to it), and nil own means copy-on-write everywhere.
// The sources' groups are flattened into key/reference columns and
// scattered with the Hash_RX partitioner; each partition then folds
// independently across workers on the morsel partition cursor. A touched
// partition the caller owns takes the source groups straight into its
// table — Wen et al.'s update-in-place build; any other touched partition
// is rebuilt as a copy of the base partition plus those groups.
// Partitions that received no source groups are shared with base by
// pointer: a fold of a small delta rebuilds only the partitions it
// touches. withValues carries the value multisets along. The result's
// groups are a pure function of the inputs' contents, in place or not,
// and for a given mask its tables and their iteration order are the same
// at any worker count.
func Fold(base, srcs []Table, own []bool, withValues bool, workers int) ([]Table, int) {
	bits := partBits(base)
	total := 0
	for _, t := range srcs {
		total += t.Len()
	}
	// refs[i] locates group i: its source's index in the high 32 bits, its
	// position in ps in the low 32 (the source is needed only for the arena
	// its values live in).
	keys := make([]uint64, 0, total)
	refs := make([]uint64, 0, total)
	ps := make([]*Partial, 0, total)
	for s, t := range srcs {
		if t.T == nil {
			continue
		}
		t.T.Iterate(func(k uint64, p *Partial) bool {
			keys = append(keys, k)
			refs = append(refs, uint64(s)<<32|uint64(len(ps)))
			ps = append(ps, p)
			return true
		})
	}

	pt := scatter(keys, refs, bits, workers)
	inPlace := func(q int) bool { return own != nil && own[q] && base[q].T != nil }
	parts := make([]Table, len(base))
	morsel.Parts(len(base), workers, func(_, q int) {
		parts[q] = base[q] // untouched, or folded in place: the base's table
		pk := pt.PartKeys(q)
		if len(pk) == 0 {
			return
		}
		if !inPlace(q) {
			parts[q] = NewTable(base[q].Len() + len(pk))
			if base[q].T != nil {
				MergeTable(parts[q], base[q], withValues)
			}
		}
		foldPart(parts[q], pk, pt.PartVals(q), ps, srcs, withValues)
	})
	n := 0
	for q := range parts {
		if inPlace(q) && len(pt.PartKeys(q)) > 0 {
			n++
		}
	}
	return parts, n
}

// foldPart is one partition of Fold: it upserts the source groups that
// landed in the partition (keys pk, references pr into ps and srcs) into
// dst. The groups land via the same blocked-hash loop as the batch
// kernels: pk is a plain column, so the blocks need no staging (a short
// last block hashes key by key).
func foldPart(dst Table, pk, pr []uint64, ps []*Partial, srcs []Table, withValues bool) {
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
			r := pr[j+i]
			p := ps[uint32(r)]
			np := dst.T.UpsertH(k, h[i])
			np.Merge(p)
			if withValues {
				np.MergeValues(dst.Ar, p, srcs[r>>32].Ar)
			}
		}
	}
}

// Absorb folds raw rows (vals[i] belongs to keys[i], equal length) into
// the partition set parts in place: the Hash_RX scatter at the set's
// fan-out, then each touched partition absorbs its rows with AbsorbRows,
// partitions in parallel across workers; a partition's table is allocated
// on first use. Partial folds are insensitive to how rows are grouped, so
// the result equals a Fold of a table that absorbed the same rows. Only
// for a set nobody else can see yet: it mutates the tables.
func Absorb(parts []Table, keys, vals []uint64, holistic bool, workers int) {
	pt := scatter(keys, vals, partBits(parts), workers)
	morsel.Parts(len(parts), workers, func(_, q int) {
		pk := pt.PartKeys(q)
		if len(pk) == 0 {
			return
		}
		if parts[q].T == nil {
			parts[q] = NewTable(len(pk))
		}
		AbsorbRows(parts[q], pk, pt.PartVals(q), holistic)
	})
}

// AbsorbRows folds raw rows (vals[i] belongs to keys[i], equal length)
// into dst: the one absorb kernel, run by a stream's shards on ingest and
// by Absorb per partition. The holistic check is hoisted out of the row
// loop, and both loops run in hashBatch-blocked form — fill a block of Mix
// hashes first, then probe with UpsertH — exactly like the lpBuild*
// kernels: the hash multiplies of a block overlap each other and the
// probes' dependent cache misses instead of serializing row by row.
func AbsorbRows(dst Table, keys, vals []uint64, holistic bool) {
	t := dst.T
	var h [hashBatch]uint64
	i := 0
	if holistic {
		ar := dst.Ar
		for ; i+hashBatch <= len(keys); i += hashBatch {
			bk := keys[i : i+hashBatch : i+hashBatch]
			bv := vals[i : i+hashBatch : i+hashBatch]
			mixBatch(&h, bk)
			for j, k := range bk {
				p := t.UpsertH(k, h[j])
				p.Observe(bv[j])
				p.Buffer(ar, bv[j])
			}
		}
		for ; i < len(keys); i++ {
			p := t.Upsert(keys[i])
			p.Observe(vals[i])
			p.Buffer(ar, vals[i])
		}
		return
	}
	for ; i+hashBatch <= len(keys); i += hashBatch {
		bk := keys[i : i+hashBatch : i+hashBatch]
		bv := vals[i : i+hashBatch : i+hashBatch]
		mixBatch(&h, bk)
		for j, k := range bk {
			t.UpsertH(k, h[j]).Observe(bv[j])
		}
	}
	for ; i < len(keys); i++ {
		t.Upsert(keys[i]).Observe(vals[i])
	}
}
