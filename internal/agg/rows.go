package agg

import (
	"memagg/internal/hashtbl"
	"memagg/internal/radix"
)

// Rows is a run: raw rows scattered by partition, the Fold source that
// aggregates nothing ahead of the fold. Partition q's rows are
// Keys[Bounds[q]:Bounds[q+1]] with their values at the same indexes, and
// a run's fan-out is recovered from len(Bounds) like a partition set's.
// Where the rows hold few repeats per group, a table built from them
// would cut their number only a little and still cost a probe per row
// plus the tables themselves (Wen et al.: local pre-aggregation is pure
// cost when it barely reduces); a run costs one scatter pass instead.
type Rows struct {
	Keys, Vals []uint64
	Bounds     []int
}

// ScatterRows scatters the rows of the column segments keys[i]/vals[i]
// (each value segment as long as its key segment) into a run at fan-out
// 2^bits, 1 <= bits <= MaxPartBits, with the Hash_RX partitioner
// (radix.PartitionSegments) at the given workers. Within a partition the
// rows keep their input order.
func ScatterRows(keys, vals [][]uint64, bits, workers int) *Rows {
	pt := radix.PartitionSegments(keys, vals, bits, workers)
	return &Rows{Keys: pt.Keys, Vals: pt.Vals, Bounds: pt.Bounds}
}

// bits returns the run's fan-out.
func (r *Rows) bits() int { return fanOut(len(r.Bounds) - 1) }

// span returns the stretch of rows that goes to partition q of a set at
// fan-out bits (no larger than the run's): the run's partitions q<<d
// through (q+1)<<d - 1, contiguous by construction.
func (r *Rows) span(q, bits int) (int, int) {
	d := uint(r.bits() - bits)
	return r.Bounds[q<<d], r.Bounds[(q+1)<<d]
}

// foldRows upserts raw rows (vals[i] belongs to keys[i]) into dst with
// AbsorbParts' blocked-hash loop, observing each value and buffering it
// in dst's arena when withValues. It is AbsorbParts on one partition
// minus the per-row routing and table creation, which a run's span does
// not need: AbsorbParts on parts[q:q+1] read 7–50 % slower per row on
// the same runs (EXPERIMENTS.md, "One fan-out per fold").
func foldRows(dst Table, keys, vals []uint64, withValues bool) {
	var h [hashBatch]uint64
	for j := 0; j < len(keys); j += hashBatch {
		bk := keys[j:min(j+hashBatch, len(keys))]
		bv := vals[j : j+len(bk)]
		if len(bk) == hashBatch {
			mixBatch(&h, bk)
		} else {
			for i, k := range bk {
				h[i] = hashtbl.Mix(k)
			}
		}
		for i, k := range bk {
			p := dst.T.UpsertH(k, h[i])
			p.Observe(bv[i])
			if withValues {
				p.Buffer(dst.Ar, bv[i])
			}
		}
	}
}
