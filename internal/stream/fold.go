package stream

import (
	"memagg/internal/agg"
	"memagg/internal/arena"
	"memagg/internal/hashtbl"
	"memagg/internal/morsel"
	"memagg/internal/obs"
	"memagg/internal/radix"
)

// srcPartial locates one delta group during a fold: the partial plus the
// arena its buffered values live in.
type srcPartial struct {
	p  *agg.Partial
	ar *arena.Arena
}

// foldParts folds base plus the sealed deltas ds into per-partition
// tables, the shared core of the merger's generation builds and the
// snapshot query path. The deltas' groups are flattened into key/index
// columns and scattered with the Hash_RX partitioner (radix.Partition) by
// the base generation's MergeBits; each partition is then rebuilt
// independently — copy of the base partition, then the delta groups that
// landed there — across workers on the morsel partition cursor. Partitions
// that received no delta groups are shared with the base unchanged (both
// are immutable, so structural sharing is free): a query that lands just
// after a small seal rebuilds only the partitions the delta touched, not
// the whole base.
func (s *Stream) foldParts(base *generation, ds []*delta, workers int) []agg.Table {
	bits := s.cfg.MergeBits
	holistic := s.cfg.Holistic

	total := 0
	for _, d := range ds {
		total += d.Len()
	}
	keys := make([]uint64, 0, total)
	idxs := make([]uint64, 0, total)
	refs := make([]srcPartial, 0, total)
	for _, d := range ds {
		ar := d.Ar
		d.T.Iterate(func(k uint64, p *agg.Partial) bool {
			keys = append(keys, k)
			idxs = append(idxs, uint64(len(refs)))
			refs = append(refs, srcPartial{p: p, ar: ar})
			return true
		})
	}

	pt := radix.Partition(keys, idxs, bits, workers)
	p := pt.NumPartitions()
	parts := make([]agg.Table, p)
	morsel.Parts(p, workers, func(_, q int) {
		var bp agg.Table
		if base != nil {
			bp = base.parts[q]
		}
		pk, pi := pt.PartKeys(q), pt.PartVals(q)
		if len(pk) == 0 {
			parts[q] = bp // untouched: share with the base
			return
		}
		nt := agg.NewTable(bp.Len() + len(pk))
		if bp.T != nil {
			agg.MergeTable(nt, bp, holistic)
		}
		// The delta groups land via the same blocked-hash loop as the
		// batch kernels: pk is a plain column, so the blocks need no
		// staging.
		var h [hashtbl.HashBatch]uint64
		j := 0
		for ; j+hashtbl.HashBatch <= len(pk); j += hashtbl.HashBatch {
			bk := pk[j : j+hashtbl.HashBatch : j+hashtbl.HashBatch]
			hashtbl.MixBatch(&h, bk)
			for jj, k := range bk {
				r := refs[pi[j+jj]]
				np := nt.T.UpsertH(k, h[jj])
				np.Merge(r.p)
				if holistic {
					np.MergeValues(nt.Ar, r.p, r.ar)
				}
			}
		}
		for ; j < len(pk); j++ {
			r := refs[pi[j]]
			np := nt.T.Upsert(pk[j])
			np.Merge(r.p)
			if holistic {
				np.MergeValues(nt.Ar, r.p, r.ar)
			}
		}
		parts[q] = nt
	})
	return parts
}

// sources returns the view's key-disjoint source tables, folding on first
// use. With no unmerged deltas the base generation's partitions serve
// directly (zero copy); otherwise the first query over any snapshot of
// this view runs the partition-wise fold at the stream's query
// parallelism, and every later snapshot of the view reuses the result.
func (v *view) sources(s *Stream) []agg.Table {
	v.fold.Do(func() {
		if len(v.sealed) == 0 {
			if v.base != nil {
				v.srcs = v.base.parts
			}
			return
		}
		mk := obs.Start()
		v.srcs = s.foldParts(v.base, v.sealed, s.cfg.QueryWorkers)
		mk.Tick(s.m.queryFoldLat)
	})
	return v.srcs
}
