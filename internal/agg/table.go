package agg

import (
	"memagg/internal/arena"
	"memagg/internal/hashtbl"
)

// Table is a bag of per-key partial aggregates: a hash table of Partials
// plus the arena their holistic value lists live in. It is the one state
// every serving tier holds — a stream shard's delta, a base-generation
// partition, a continuous-view pane, a router's decoded peer set — and
// the one thing MergeTable folds and Run queries. A Table is mutated by
// exactly one goroutine and is immutable once shared. The zero Table
// (nil T) holds no groups.
type Table struct {
	T  *hashtbl.LinearProbe[Partial]
	Ar *arena.Arena
}

// NewTable returns an empty table sized for capacity groups.
func NewTable(capacity int) Table {
	return Table{T: hashtbl.NewLinearProbe[Partial](capacity), Ar: arena.New()}
}

// Len returns the number of groups; the zero Table has none.
func (t Table) Len() int {
	if t.T == nil {
		return 0
	}
	return t.T.Len()
}

// Groups returns the total group count of key-disjoint parts.
func Groups(parts []Table) int {
	total := 0
	for _, tb := range parts {
		total += tb.Len()
	}
	return total
}

// MergeTable folds every group of src into dst — the table-granularity form
// of Partial.Merge, and the same function at every tier: the stream merger
// (base partition → new partition), a view read (panes → window), and a
// cluster gather (peer sets → cluster state). withValues carries the value
// multisets along. Iteration delivers one group per callback, so the
// batched-hash discipline of the lpBuild* kernels takes a staging buffer
// here: groups accumulate in blocks of hashtbl.HashBatch, each full block
// is Mix-hashed at once and probed with UpsertH, and the final short block
// hashes row by row.
func MergeTable(dst, src Table, withValues bool) {
	var (
		h  [hashtbl.HashBatch]uint64
		ks [hashtbl.HashBatch]uint64
		ps [hashtbl.HashBatch]*Partial
	)
	n := 0
	fold := func(k, hk uint64, p *Partial) {
		np := dst.T.UpsertH(k, hk)
		np.Merge(p)
		if withValues {
			np.MergeValues(dst.Ar, p, src.Ar)
		}
	}
	src.T.Iterate(func(k uint64, p *Partial) bool {
		ks[n], ps[n] = k, p
		n++
		if n == hashtbl.HashBatch {
			hashtbl.MixBatch(&h, ks[:])
			for j, bk := range ks {
				fold(bk, h[j], ps[j])
			}
			n = 0
		}
		return true
	})
	for j := 0; j < n; j++ {
		fold(ks[j], hashtbl.Mix(ks[j]), ps[j])
	}
}
