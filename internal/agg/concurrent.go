package agg

import (
	"sync"

	"memagg/internal/chash"
	"memagg/internal/cuckoo"
)

// pool is the worker count a parallel engine builds with: threads > 0 asks
// for that many goroutines, threads <= 0 for GOMAXPROCS.
type pool struct {
	threads int
}

func (p pool) workers() int {
	if p.threads <= 0 {
		return defaultWorkers()
	}
	return p.threads
}

// forcePar reports whether the caller explicitly asked for parallelism
// (threads > 1), which disables parallelChunks' small-input serial cutoff.
func (p pool) forcePar() bool { return p.threads > 1 }

// cuckooEngine implements Engine over the concurrent cuckoo map (Hash_LC).
// With threads == 1 it is the serial engine of the paper's Table 3 — and
// pays the full locking protocol anyway, reproducing the poor serial build
// times of Figure 3. With threads > 1 the build phase partitions the input
// across workers that share the table, exploiting libcuckoo's user-defined
// upsert to aggregate without a second lookup.
type cuckooEngine struct {
	pool
	unordered
}

// HashLC returns the libcuckoo-analog engine ("Hash_LC") running its build
// phase on the given number of goroutines (<= 0 uses GOMAXPROCS; 1 is the
// serial configuration used in Figures 3-7).
func HashLC(threads int) Engine {
	return &cuckooEngine{pool: pool{threads}}
}

func (e *cuckooEngine) Name() string       { return "Hash_LC" }
func (e *cuckooEngine) Category() Category { return HashBased }

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
	return e.countQ1(keys, &phaseClock{})
}

func (e *cuckooEngine) countQ1(keys []uint64, c *phaseClock) []GroupCount {
	c.start(e.Name())
	m := cuckoo.New[uint64](sizeHint(len(keys)))
	parallelChunks(len(keys), e.workers(), e.forcePar(), func(lo, hi int) {
		for _, k := range keys[lo:hi] {
			m.Upsert(k, func(v *uint64, _ bool) { *v++ })
		}
	})
	c.built()
	out := emitCounts(m)
	c.iterated()
	return out
}

func (e *cuckooEngine) VectorAvg(keys, vals []uint64) []GroupFloat {
	m := cuckoo.New[avgState](sizeHint(len(keys)))
	parallelChunks(len(keys), e.workers(), e.forcePar(), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			v := valueAt(vals, i)
			m.Upsert(keys[i], func(st *avgState, _ bool) {
				st.sum += v
				st.count++
			})
		}
	})
	return emitAvg(m)
}

func (e *cuckooEngine) VectorMedian(keys, vals []uint64) []GroupFloat {
	return e.VectorHolistic(keys, vals, MedianFunc)
}

// tbbEngine implements Engine over the striped chained map (Hash_TBBSC).
// Q3 reproduces the paper's observation that the TBB table degrades on
// holistic queries: every value append happens under the shard lock (the
// concurrent-vector substitution, DESIGN.md item 6).
type tbbEngine struct {
	pool
	unordered
}

// HashTBBSC returns the TBB-concurrent-map-analog engine ("Hash_TBBSC")
// building on the given number of goroutines (<= 0 uses GOMAXPROCS).
func HashTBBSC(threads int) Engine {
	return &tbbEngine{pool: pool{threads}}
}

func (e *tbbEngine) Name() string       { return "Hash_TBBSC" }
func (e *tbbEngine) Category() Category { return HashBased }

func (e *tbbEngine) VectorCount(keys []uint64) []GroupCount {
	return e.countQ1(keys, &phaseClock{})
}

func (e *tbbEngine) countQ1(keys []uint64, c *phaseClock) []GroupCount {
	c.start(e.Name())
	m := chash.New[uint64](sizeHint(len(keys)), 0)
	parallelChunks(len(keys), e.workers(), e.forcePar(), func(lo, hi int) {
		for _, k := range keys[lo:hi] {
			m.Upsert(k, func(v *uint64) { *v++ })
		}
	})
	c.built()
	out := emitCounts(m)
	c.iterated()
	return out
}

func (e *tbbEngine) VectorAvg(keys, vals []uint64) []GroupFloat {
	m := chash.New[avgState](sizeHint(len(keys)), 0)
	parallelChunks(len(keys), e.workers(), e.forcePar(), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			v := valueAt(vals, i)
			m.Upsert(keys[i], func(st *avgState) {
				st.sum += v
				st.count++
			})
		}
	})
	return emitAvg(m)
}

func (e *tbbEngine) VectorMedian(keys, vals []uint64) []GroupFloat {
	return e.VectorHolistic(keys, vals, MedianFunc)
}
