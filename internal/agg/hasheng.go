package agg

import (
	"memagg/internal/arena"
	"memagg/internal/hashtbl"
	"memagg/internal/obs"
)

// kvTable is the subset of the hash table surface the operators need. Each
// engine carries one constructor per value type used by the query classes.
type kvTable[V any] interface {
	Upsert(key uint64) *V
	Iterate(fn func(key uint64, val *V) bool)
	Len() int
}

// hashEngine implements Engine over any serial hash table. Build phase:
// one Upsert per record with early aggregation (count/sum updated in
// place) via the monomorphized kernels of kernels.go; for the holistic Q3
// the value is the group's buffered value list — a heap []uint64 under the
// go-runtime allocator, a chunked arena list under AllocArena (see
// alloc.go). Iterate phase: table iteration in unspecified order.
type hashEngine struct {
	name      string
	alloc     Allocator
	newCount  func(capacity int) kvTable[uint64]
	newAvg    func(capacity int) kvTable[avgState]
	newList   func(capacity int) kvTable[[]uint64]
	newAList  func(capacity int) kvTable[arena.List]
	newReduce func(capacity int) kvTable[reduceState]
}

// HashLP returns the custom linear-probing engine ("Hash_LP").
func HashLP() Engine {
	return &hashEngine{
		name:      "Hash_LP",
		newCount:  func(n int) kvTable[uint64] { return hashtbl.NewLinearProbe[uint64](n) },
		newAvg:    func(n int) kvTable[avgState] { return hashtbl.NewLinearProbe[avgState](n) },
		newList:   func(n int) kvTable[[]uint64] { return hashtbl.NewLinearProbe[[]uint64](n) },
		newAList:  func(n int) kvTable[arena.List] { return hashtbl.NewLinearProbe[arena.List](n) },
		newReduce: func(n int) kvTable[reduceState] { return hashtbl.NewLinearProbe[reduceState](n) },
	}
}

// HashSC returns the separate-chaining engine ("Hash_SC").
func HashSC() Engine {
	return &hashEngine{
		name:      "Hash_SC",
		newCount:  func(n int) kvTable[uint64] { return hashtbl.NewChained[uint64](n) },
		newAvg:    func(n int) kvTable[avgState] { return hashtbl.NewChained[avgState](n) },
		newList:   func(n int) kvTable[[]uint64] { return hashtbl.NewChained[[]uint64](n) },
		newAList:  func(n int) kvTable[arena.List] { return hashtbl.NewChained[arena.List](n) },
		newReduce: func(n int) kvTable[reduceState] { return hashtbl.NewChained[reduceState](n) },
	}
}

// HashSparse returns the sparse quadratic-probing engine ("Hash_Sparse").
func HashSparse() Engine {
	return &hashEngine{
		name:      "Hash_Sparse",
		newCount:  func(n int) kvTable[uint64] { return hashtbl.NewSparse[uint64](n) },
		newAvg:    func(n int) kvTable[avgState] { return hashtbl.NewSparse[avgState](n) },
		newList:   func(n int) kvTable[[]uint64] { return hashtbl.NewSparse[[]uint64](n) },
		newAList:  func(n int) kvTable[arena.List] { return hashtbl.NewSparse[arena.List](n) },
		newReduce: func(n int) kvTable[reduceState] { return hashtbl.NewSparse[reduceState](n) },
	}
}

// HashDense returns the dense quadratic-probing engine ("Hash_Dense").
func HashDense() Engine {
	return &hashEngine{
		name:      "Hash_Dense",
		newCount:  func(n int) kvTable[uint64] { return hashtbl.NewDense[uint64](n) },
		newAvg:    func(n int) kvTable[avgState] { return hashtbl.NewDense[avgState](n) },
		newList:   func(n int) kvTable[[]uint64] { return hashtbl.NewDense[[]uint64](n) },
		newAList:  func(n int) kvTable[arena.List] { return hashtbl.NewDense[arena.List](n) },
		newReduce: func(n int) kvTable[reduceState] { return hashtbl.NewDense[reduceState](n) },
	}
}

func (e *hashEngine) Name() string       { return e.name }
func (e *hashEngine) Category() Category { return HashBased }

// sizeHint follows the paper's methodology (Section 3.2): the group-by
// cardinality is unknown, so tables are sized to the dataset size.
func sizeHint(n int) int { return n }

func (e *hashEngine) VectorCount(keys []uint64) []GroupCount {
	ph := phasesFor(e.name)
	m := obs.Start()
	t := e.newCount(sizeHint(len(keys)))
	buildCount(t, keys)
	m = m.Tick(ph.build)
	out := make([]GroupCount, 0, t.Len())
	t.Iterate(func(k uint64, v *uint64) bool {
		out = append(out, GroupCount{Key: k, Count: *v})
		return true
	})
	m.Tick(ph.iterate)
	return out
}

func (e *hashEngine) VectorAvg(keys, vals []uint64) []GroupFloat {
	t := e.newAvg(sizeHint(len(keys)))
	buildAvg(t, keys, vals)
	out := make([]GroupFloat, 0, t.Len())
	t.Iterate(func(k uint64, st *avgState) bool {
		out = append(out, GroupFloat{Key: k, Value: st.avg()})
		return true
	})
	return out
}

func (e *hashEngine) VectorMedian(keys, vals []uint64) []GroupFloat {
	return e.VectorHolistic(keys, vals, MedianFunc)
}

// ScalarMedian is unsupported: a hash table cannot enumerate keys in order
// (Section 5.7 excludes hash tables from Q6 for exactly this reason).
func (e *hashEngine) ScalarMedian([]uint64) (float64, error) {
	return 0, ErrUnsupported
}

// VectorCountRange is unsupported: hash tables have no native range search
// (Section 5.6 evaluates Q7 on the tree-based algorithms).
func (e *hashEngine) VectorCountRange([]uint64, uint64, uint64) ([]GroupCount, error) {
	return nil, ErrUnsupported
}
