package agg

import (
	"runtime"
	"sync"

	"memagg/internal/chash"
	"memagg/internal/cuckoo"
	"memagg/internal/obs"
)

// cuckooEngine implements Engine over the concurrent cuckoo map (Hash_LC).
// With threads == 1 it is the serial engine of the paper's Table 3 — and
// pays the full locking protocol anyway, reproducing the poor serial build
// times of Figure 3. With threads > 1 the build phase partitions the input
// across workers that share the table, exploiting libcuckoo's user-defined
// upsert to aggregate without a second lookup.
type cuckooEngine struct {
	threads int
}

// HashLC returns the libcuckoo-analog engine ("Hash_LC") running its build
// phase on the given number of goroutines (<= 0 uses GOMAXPROCS; 1 is the
// serial configuration used in Figures 3-7).
func HashLC(threads int) Engine {
	return &cuckooEngine{threads: threads}
}

func (e *cuckooEngine) Name() string       { return "Hash_LC" }
func (e *cuckooEngine) Category() Category { return HashBased }

func (e *cuckooEngine) workers() int {
	if e.threads <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return e.threads
}

// forcePar reports whether the caller explicitly asked for parallelism
// (threads > 1), which disables parallelChunks' small-input serial cutoff.
func (e *cuckooEngine) forcePar() bool { return e.threads > 1 }

// parallelChunks runs body over near-equal contiguous chunks of [0, n).
// force bypasses the small-input serial cutoff: engines set it when the
// caller explicitly requested a thread count (threads > 1), so thread-sweep
// benchmarks measure the parallelism they asked for; the cutoff applies
// only on the auto/GOMAXPROCS path where it is a pure heuristic.
func parallelChunks(n, p int, force bool, body func(lo, hi int)) {
	if p <= 1 || n == 0 || (!force && n < 4096) {
		body(0, n)
		return
	}
	var wg sync.WaitGroup
	wg.Add(p)
	for w := 0; w < p; w++ {
		lo, hi := n*w/p, n*(w+1)/p
		go func(lo, hi int) {
			defer wg.Done()
			body(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

func (e *cuckooEngine) VectorCount(keys []uint64) []GroupCount {
	ph := phasesFor(e.Name())
	mk := obs.Start()
	m := cuckoo.New[uint64](sizeHint(len(keys)))
	parallelChunks(len(keys), e.workers(), e.forcePar(), func(lo, hi int) {
		for _, k := range keys[lo:hi] {
			m.Upsert(k, func(v *uint64, _ bool) { *v++ })
		}
	})
	mk = mk.Tick(ph.build)
	out := make([]GroupCount, 0, m.Len())
	m.Iterate(func(k uint64, v *uint64) bool {
		out = append(out, GroupCount{Key: k, Count: *v})
		return true
	})
	mk.Tick(ph.iterate)
	return out
}

func (e *cuckooEngine) VectorAvg(keys, vals []uint64) []GroupFloat {
	m := cuckoo.New[avgState](sizeHint(len(keys)))
	parallelChunks(len(keys), e.workers(), e.forcePar(), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			var v uint64
			if i < len(vals) {
				v = vals[i]
			}
			m.Upsert(keys[i], func(st *avgState, _ bool) {
				st.sum += v
				st.count++
			})
		}
	})
	out := make([]GroupFloat, 0, m.Len())
	m.Iterate(func(k uint64, st *avgState) bool {
		out = append(out, GroupFloat{Key: k, Value: st.avg()})
		return true
	})
	return out
}

func (e *cuckooEngine) VectorMedian(keys, vals []uint64) []GroupFloat {
	m := cuckoo.New[[]uint64](sizeHint(len(keys)))
	parallelChunks(len(keys), e.workers(), e.forcePar(), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			var v uint64
			if i < len(vals) {
				v = vals[i]
			}
			m.Upsert(keys[i], func(lst *[]uint64, _ bool) {
				*lst = append(*lst, v)
			})
		}
	})
	out := make([]GroupFloat, 0, m.Len())
	m.Iterate(func(k uint64, lst *[]uint64) bool {
		out = append(out, GroupFloat{Key: k, Value: Median(*lst)})
		return true
	})
	return out
}

func (e *cuckooEngine) ScalarMedian([]uint64) (float64, error) {
	return 0, ErrUnsupported
}

func (e *cuckooEngine) VectorCountRange([]uint64, uint64, uint64) ([]GroupCount, error) {
	return nil, ErrUnsupported
}

// tbbEngine implements Engine over the striped chained map (Hash_TBBSC).
// Q3 reproduces the paper's observation that the TBB table degrades on
// holistic queries: every value append happens under the shard lock (the
// concurrent-vector substitution, DESIGN.md item 6).
type tbbEngine struct {
	threads int
}

// HashTBBSC returns the TBB-concurrent-map-analog engine ("Hash_TBBSC")
// building on the given number of goroutines (<= 0 uses GOMAXPROCS).
func HashTBBSC(threads int) Engine {
	return &tbbEngine{threads: threads}
}

func (e *tbbEngine) Name() string       { return "Hash_TBBSC" }
func (e *tbbEngine) Category() Category { return HashBased }

func (e *tbbEngine) workers() int {
	if e.threads <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return e.threads
}

// forcePar reports whether the caller explicitly asked for parallelism
// (threads > 1); see cuckooEngine.forcePar.
func (e *tbbEngine) forcePar() bool { return e.threads > 1 }

func (e *tbbEngine) VectorCount(keys []uint64) []GroupCount {
	ph := phasesFor(e.Name())
	mk := obs.Start()
	m := chash.New[uint64](sizeHint(len(keys)), 0)
	parallelChunks(len(keys), e.workers(), e.forcePar(), func(lo, hi int) {
		for _, k := range keys[lo:hi] {
			m.Upsert(k, func(v *uint64) { *v++ })
		}
	})
	mk = mk.Tick(ph.build)
	out := make([]GroupCount, 0, m.Len())
	m.Iterate(func(k uint64, v *uint64) bool {
		out = append(out, GroupCount{Key: k, Count: *v})
		return true
	})
	mk.Tick(ph.iterate)
	return out
}

func (e *tbbEngine) VectorAvg(keys, vals []uint64) []GroupFloat {
	m := chash.New[avgState](sizeHint(len(keys)), 0)
	parallelChunks(len(keys), e.workers(), e.forcePar(), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			var v uint64
			if i < len(vals) {
				v = vals[i]
			}
			m.Upsert(keys[i], func(st *avgState) {
				st.sum += v
				st.count++
			})
		}
	})
	out := make([]GroupFloat, 0, m.Len())
	m.Iterate(func(k uint64, st *avgState) bool {
		out = append(out, GroupFloat{Key: k, Value: st.avg()})
		return true
	})
	return out
}

func (e *tbbEngine) VectorMedian(keys, vals []uint64) []GroupFloat {
	m := chash.New[[]uint64](sizeHint(len(keys)), 0)
	parallelChunks(len(keys), e.workers(), e.forcePar(), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			var v uint64
			if i < len(vals) {
				v = vals[i]
			}
			m.Upsert(keys[i], func(lst *[]uint64) { *lst = append(*lst, v) })
		}
	})
	out := make([]GroupFloat, 0, m.Len())
	m.Iterate(func(k uint64, lst *[]uint64) bool {
		out = append(out, GroupFloat{Key: k, Value: Median(*lst)})
		return true
	})
	return out
}

func (e *tbbEngine) ScalarMedian([]uint64) (float64, error) {
	return 0, ErrUnsupported
}

func (e *tbbEngine) VectorCountRange([]uint64, uint64, uint64) ([]GroupCount, error) {
	return nil, ErrUnsupported
}
