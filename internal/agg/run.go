package agg

import (
	"sort"

	"memagg/internal/morsel"
	"memagg/internal/obs"
	"memagg/internal/xsort"
)

// SerialQueryCutoff is the group count below which Run scans on the calling
// goroutine: under it the whole result fits comfortably in cache and the
// partition scan finishes in microseconds, so worker goroutine startup
// would dominate (BenchmarkSnapshotQuery's cutoff cases locate it; the
// recorded crossover is in EXPERIMENTS.md). A var only so the equivalence
// gates and that benchmark can force both paths: 0 forces parallel, a
// huge value serial.
var SerialQueryCutoff = 1 << 13

// RunEnv is what a caller knows about its parts that the tables do not
// carry.
type RunEnv struct {
	// Rows is the row count the parts cover — Q4's answer.
	Rows uint64

	// Holistic reports whether the parts retain value multisets; without
	// them Q3/quantile/mode answer ErrUnsupported.
	Holistic bool

	// Workers is the scan parallelism above SerialQueryCutoff; <= 1 scans
	// on the caller.
	Workers int

	// ScanLat and MergeLat record the partition-scan phase and the
	// post-scan combine (partial sums, sort, rank walk); nil records
	// nothing.
	ScanLat, MergeLat *obs.Histogram
}

// Run executes q over key-disjoint parts jointly holding every group —
// the one kernel set behind snapshot queries, cluster gathers, and view
// reads. The result is []GroupCount (q1, q7), []GroupFloat (q2, q3,
// quantile, mode), []GroupUint (reduce), uint64 (q4), or float64 (q5,
// q6), identical to running the matching batch engine over the same rows.
//
// Vector rows come out partition by partition, table iteration order
// within each (q7 ascending by key — a range query is inherently ordered),
// written through per-partition offsets into one pre-sized slice: no
// per-worker buffers, no concat, and the same output at any worker count.
// Empty results are empty non-nil slices.
func Run(parts []Table, q Query, env RunEnv) (any, error) {
	if err := q.Check(env.Holistic); err != nil {
		return nil, err
	}
	s := scanner{parts: parts, offs: make([]int, len(parts)), workers: 1, env: env}
	for i, tb := range parts {
		s.offs[i] = s.total
		s.total += tb.Len()
	}
	if env.Workers > 1 && s.total >= SerialQueryCutoff {
		s.workers = env.Workers
	}
	switch q.ID {
	case QCountByKey:
		return vector(&s, func(k uint64, p *Partial) GroupCount { return GroupCount{Key: k, Count: p.Count()} }), nil
	case QAvgByKey:
		return vector(&s, func(k uint64, p *Partial) GroupFloat { return GroupFloat{Key: k, Value: p.Avg()} }), nil
	case QReduce:
		return vector(&s, func(k uint64, p *Partial) GroupUint { return GroupUint{Key: k, Value: p.Reduce(q.Op)} }), nil
	case QMedianByKey:
		return s.holistic(MedianFunc), nil
	case QQuantile:
		return s.holistic(QuantileFunc(q.P)), nil
	case QMode:
		return s.holistic(ModeFunc), nil
	case QCount:
		return env.Rows, nil
	case QAvg:
		return s.avg(), nil
	case QMedian:
		return s.median(), nil
	default: // QRange: Check admitted nothing else
		return s.countRange(q.Lo, q.Hi), nil
	}
}

// SortRows orders a vector result of Run ascending by key, in place;
// scalar results pass through. Run's own order is partition order (only q7
// comes out sorted); callers whose contract is key order — a cluster
// gather, tests comparing two hash orders — sort with this.
func SortRows(v any) {
	switch rows := v.(type) {
	case []GroupCount:
		sort.Slice(rows, func(i, j int) bool { return rows[i].Key < rows[j].Key })
	case []GroupFloat:
		sort.Slice(rows, func(i, j int) bool { return rows[i].Key < rows[j].Key })
	case []GroupUint:
		sort.Slice(rows, func(i, j int) bool { return rows[i].Key < rows[j].Key })
	}
}

// scanner is one Run's view of its parts: each part's start offset in a
// result laid out partition by partition, the total group count, and the
// parallelism the cutoff allows.
type scanner struct {
	parts   []Table
	offs    []int
	total   int
	workers int
	env     RunEnv
}

// each runs body over every non-empty part and records the scan phase.
// The worker index is stable per worker, for per-worker accumulators.
func (s *scanner) each(body func(worker, part int)) {
	mk := obs.Start()
	morsel.Parts(len(s.parts), s.workers, func(w, q int) {
		if s.parts[q].T != nil {
			body(w, q)
		}
	})
	mk.Tick(s.env.ScanLat)
}

// vector runs one row-per-group kernel.
func vector[R any](s *scanner, row func(k uint64, p *Partial) R) []R {
	out := make([]R, s.total)
	s.each(func(_, q int) {
		i := s.offs[q]
		s.parts[q].T.Iterate(func(k uint64, p *Partial) bool {
			out[i] = row(k, p)
			i++
			return true
		})
	})
	return out
}

// holistic runs fn over every group's value multiset. Each worker reuses
// one scratch buffer across groups: the holistic functions may reorder
// their argument (Median and Quantile select in place).
func (s *scanner) holistic(fn HolisticFunc) []GroupFloat {
	out := make([]GroupFloat, s.total)
	scratch := make([][]uint64, s.workers)
	s.each(func(w, q int) {
		i, ar, buf := s.offs[q], s.parts[q].Ar, scratch[w]
		s.parts[q].T.Iterate(func(k uint64, p *Partial) bool {
			buf = p.AppendValues(ar, buf[:0])
			out[i] = GroupFloat{Key: k, Value: fn(buf)}
			i++
			return true
		})
		scratch[w] = buf
	})
	return out
}

// workerAcc is one worker's running (sum, count), padded to a cache line:
// the accumulators are written in the scan's hot loop.
type workerAcc struct {
	sum, count uint64
	_          [6]uint64
}

// avg executes Q5 as one float64 division of the exact total sum by the
// exact row count. Per-worker integer partial sums merge exactly, so the
// parallel result is bit-identical to the serial one.
func (s *scanner) avg() float64 {
	acc := make([]workerAcc, s.workers)
	s.each(func(w, q int) {
		sum, count := acc[w].sum, acc[w].count
		s.parts[q].T.Iterate(func(_ uint64, p *Partial) bool {
			sum += p.Sum()
			count += p.Count()
			return true
		})
		acc[w].sum, acc[w].count = sum, count
	})
	mk := obs.Start()
	var sum, count uint64
	for _, a := range acc {
		sum += a.sum
		count += a.count
	}
	mk.Tick(s.env.MergeLat)
	if count == 0 {
		return 0
	}
	return float64(sum) / float64(count)
}

// median executes Q6, MEDIAN over the key column. The batch hash engines
// cannot enumerate keys in order; here the per-group counts make it exact:
// gather the (key, count) pairs, sort them by key, and walk cumulative
// counts to the middle rank(s).
func (s *scanner) median() float64 {
	groups := make([]xsort.KV, s.total)
	acc := make([]workerAcc, s.workers)
	s.each(func(w, q int) {
		i, rows := s.offs[q], acc[w].count
		s.parts[q].T.Iterate(func(k uint64, p *Partial) bool {
			c := p.Count()
			groups[i] = xsort.KV{K: k, V: c}
			rows += c
			i++
			return true
		})
		acc[w].count = rows
	})
	var n uint64
	for _, a := range acc {
		n += a.count
	}
	if n == 0 {
		return 0
	}
	mk := obs.Start()
	s.sortKV(groups)
	m := float64(keyAtRank(groups, n/2))
	if n%2 == 0 {
		m = (float64(keyAtRank(groups, n/2-1)) + m) / 2
	}
	mk.Tick(s.env.MergeLat)
	return m
}

// countRange executes Q7. Matching rows collect into per-worker buffers
// pre-sized by the group count and the range's width, then one sort
// orders the concatenation (hash partitions interleave key ranges, so a
// global sort is needed regardless).
func (s *scanner) countRange(lo, hi uint64) []GroupCount {
	// Selectivity guess: no more groups can match than exist, and no more
	// than the range has distinct keys (width 0 means the full domain).
	hint := s.total
	if width := hi - lo + 1; width != 0 && width < uint64(hint) {
		hint = int(width)
	}
	bufs := make(Result[xsort.KV], s.workers)
	s.each(func(w, q int) {
		buf := bufs[w]
		if buf == nil {
			buf = make([]xsort.KV, 0, hint/s.workers+1)
		}
		s.parts[q].T.Iterate(func(k uint64, p *Partial) bool {
			if lo <= k && k <= hi {
				buf = append(buf, xsort.KV{K: k, V: p.Count()})
			}
			return true
		})
		bufs[w] = buf
	})
	mk := obs.Start()
	rows := bufs.Merge()
	s.sortKV(rows)
	out := make([]GroupCount, len(rows))
	for i, r := range rows {
		out[i] = GroupCount{Key: r.K, Count: r.V}
	}
	mk.Tick(s.env.MergeLat)
	return out
}

// sortKV orders records ascending by key: the parallel block-introsort
// merge when both the input and the worker budget warrant it, serial
// introsort otherwise (the Fig2/Fig10-measured routing).
func (s *scanner) sortKV(a []xsort.KV) {
	if s.workers > 1 && len(a) >= SerialQueryCutoff {
		xsort.SortBIKV(a, s.workers)
		return
	}
	xsort.IntrosortKV(a)
}

// keyAtRank returns the key at 0-based rank r of the expansion of the
// key-sorted (key, count) runs.
func keyAtRank(groups []xsort.KV, r uint64) uint64 {
	var cum uint64
	for _, g := range groups {
		cum += g.V
		if r < cum {
			return g.K
		}
	}
	return groups[len(groups)-1].K
}
