package agg

import (
	"sort"

	"memagg/internal/obs"
	"memagg/internal/xsort"
)

// sortEngine implements Engine by sorting a copy of the input so that each
// group's records become contiguous, then scanning runs of equal keys — the
// paper's sort-based aggregation. The build phase is the sort; the iterate
// phase is the run scan. Both distributive and holistic functions use the
// identical build, which is why sorting wins on holistic queries: the
// values arrive grouped for free.
//
// The allocator knob (Dimension 6) controls the working copies: under
// AllocArena the key and key/value buffers — the sort engines' only large
// allocations — come from the shared SlicePools and are recycled across
// queries instead of re-allocated per query.
type sortEngine struct {
	name   string
	alloc  Allocator
	sortU  func([]uint64) // key-only sort
	sortKV func([]xsort.KV)
}

// Introsort returns the std::sort-based engine (paper label "Introsort").
func Introsort() Engine {
	return &sortEngine{name: "Introsort", sortU: xsort.Introsort, sortKV: xsort.IntrosortKV}
}

// Spreadsort returns the Boost spreadsort-based engine ("Spreadsort").
func Spreadsort() Engine {
	return &sortEngine{name: "Spreadsort", sortU: xsort.Spreadsort, sortKV: xsort.SpreadsortKV}
}

// SortBI returns the parallel block-sort engine ("Sort_BI") running on p
// threads (p <= 0 uses GOMAXPROCS).
func SortBI(p int) Engine {
	return &sortEngine{
		name:   "Sort_BI",
		sortU:  func(a []uint64) { xsort.SortBI(a, p) },
		sortKV: func(a []xsort.KV) { xsort.SortBIKV(a, p) },
	}
}

// SortQSLB returns the parallel load-balanced quicksort engine
// ("Sort_QSLB") running on p threads (p <= 0 uses GOMAXPROCS).
func SortQSLB(p int) Engine {
	return &sortEngine{
		name:   "Sort_QSLB",
		sortU:  func(a []uint64) { xsort.SortQSLB(a, p) },
		sortKV: func(a []xsort.KV) { xsort.SortQSLBKV(a, p) },
	}
}

func (e *sortEngine) Name() string       { return e.name }
func (e *sortEngine) Category() Category { return SortBased }

// copyKeys returns a private working copy of keys — pooled under the arena
// allocator, freshly heap-allocated otherwise. Pooled copies must be
// returned with releaseKeys once no result references them.
func (e *sortEngine) copyKeys(keys []uint64) []uint64 {
	if e.alloc == AllocArena {
		buf := u64Pool.Get(len(keys))
		copy(buf, keys)
		return buf
	}
	return append([]uint64(nil), keys...)
}

func (e *sortEngine) releaseKeys(buf []uint64) {
	if e.alloc == AllocArena {
		u64Pool.Put(buf)
	}
}

// copyKV zips keys and vals into a private record buffer (see makeKV),
// pooled under the arena allocator.
func (e *sortEngine) copyKV(keys, vals []uint64) []xsort.KV {
	if e.alloc != AllocArena {
		return makeKV(keys, vals)
	}
	buf := kvPool.Get(len(keys))
	fillKV(buf, keys, vals)
	return buf
}

func (e *sortEngine) releaseKV(buf []xsort.KV) {
	if e.alloc == AllocArena {
		kvPool.Put(buf)
	}
}

func (e *sortEngine) VectorCount(keys []uint64) []GroupCount {
	if len(keys) == 0 {
		return nil
	}
	ph := phasesFor(e.name)
	m := obs.Start()
	buf := e.copyKeys(keys)
	e.sortU(buf)
	m = m.Tick(ph.build)
	out := countRuns(buf)
	m.Tick(ph.iterate)
	e.releaseKeys(buf)
	return out
}

// countRuns scans an ascending slice and emits one GroupCount per run.
func countRuns(sorted []uint64) []GroupCount {
	var out []GroupCount
	cur, n := sorted[0], uint64(0)
	for _, k := range sorted {
		if k != cur {
			out = append(out, GroupCount{Key: cur, Count: n})
			cur, n = k, 0
		}
		n++
	}
	return append(out, GroupCount{Key: cur, Count: n})
}

func (e *sortEngine) VectorAvg(keys, vals []uint64) []GroupFloat {
	if len(keys) == 0 {
		return nil
	}
	buf := e.copyKV(keys, vals)
	e.sortKV(buf)
	var out []GroupFloat
	cur := buf[0].K
	var st avgState
	for _, r := range buf {
		if r.K != cur {
			out = append(out, GroupFloat{Key: cur, Value: st.avg()})
			cur, st = r.K, avgState{}
		}
		st.sum += r.V
		st.count++
	}
	out = append(out, GroupFloat{Key: cur, Value: st.avg()})
	e.releaseKV(buf)
	return out
}

func (e *sortEngine) VectorMedian(keys, vals []uint64) []GroupFloat {
	return e.VectorHolistic(keys, vals, MedianFunc)
}

func (e *sortEngine) ScalarMedian(keys []uint64) (float64, error) {
	if len(keys) == 0 {
		return 0, nil
	}
	buf := e.copyKeys(keys)
	e.sortU(buf)
	m := MedianSorted(buf)
	e.releaseKeys(buf)
	return m, nil
}

func (e *sortEngine) VectorCountRange(keys []uint64, lo, hi uint64) ([]GroupCount, error) {
	if len(keys) == 0 || lo > hi {
		return nil, nil
	}
	buf := e.copyKeys(keys)
	e.sortU(buf)
	i := sort.Search(len(buf), func(i int) bool { return buf[i] >= lo })
	j := sort.Search(len(buf), func(i int) bool { return buf[i] > hi })
	var out []GroupCount
	if i < j {
		out = countRuns(buf[i:j])
	}
	e.releaseKeys(buf)
	return out, nil
}

// makeKV zips keys and vals into records. vals may be shorter (missing
// values aggregate as zero), which keeps callers that only have keys legal.
func makeKV(keys, vals []uint64) []xsort.KV {
	buf := make([]xsort.KV, len(keys))
	fillKV(buf, keys, vals)
	return buf
}

func fillKV(buf []xsort.KV, keys, vals []uint64) {
	for i, k := range keys {
		buf[i].K = k
		if i < len(vals) {
			buf[i].V = vals[i]
		} else {
			buf[i].V = 0
		}
	}
}
