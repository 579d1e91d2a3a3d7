package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"memagg"
	"memagg/internal/agg"
	"memagg/internal/dataset"
)

// batch_paper constants; README.md has the reasoning (and why the sizes are
// a quarter of the issue's).
const (
	batchRows   = 524288 // input rows per cell
	batchCardLo = 1000   // below Recommend's 2^16 Hash_GLB/Hash_RX cutoff
	batchCardHi = 262144 // above it; the tables outgrow the 4 MiB L2
)

// cell is one point of the paper grid: a query on a backend over a dataset.
type cell struct {
	id      string
	query   string // q1 | q3 | q6 | q7
	backend memagg.Backend
	threads int
	arena   bool
	kind    dataset.Kind
	card    int
}

// paperGrid is the fixed grid one pass runs, in order. It varies the
// paper's dimensions that move the crossovers: query class (distributive
// q1, holistic q3, scalar q6, range q7), algorithm family (hash, sort,
// tree; global vs partitioned parallel), cardinality on both sides of the
// Hash_GLB/Hash_RX cutoff, skew, allocator, and thread count.
var paperGrid = []cell{
	{"q1_lp_rseq_lo", "q1", memagg.HashLP, 1, false, dataset.RseqShf, batchCardLo},
	{"q1_lp_rseq_hi", "q1", memagg.HashLP, 1, false, dataset.RseqShf, batchCardHi},
	{"q1_lp_zipf_hi", "q1", memagg.HashLP, 1, false, dataset.Zipf, batchCardHi},
	{"q1_spread_rseq_hi", "q1", memagg.Spreadsort, 1, false, dataset.RseqShf, batchCardHi},
	{"q1_art_rseq_hi", "q1", memagg.ART, 1, false, dataset.RseqShf, batchCardHi},
	{"q1_glb2_rseq_lo", "q1", memagg.HashGLB, 2, false, dataset.RseqShf, batchCardLo},
	{"q1_glb2_rseq_hi", "q1", memagg.HashGLB, 2, false, dataset.RseqShf, batchCardHi},
	{"q1_rx2_rseq_lo", "q1", memagg.HashRX, 2, false, dataset.RseqShf, batchCardLo},
	{"q1_rx2_rseq_hi", "q1", memagg.HashRX, 2, false, dataset.RseqShf, batchCardHi},
	{"q1_tbbsc2_hhit_hi", "q1", memagg.HashTBBSC, 2, false, dataset.HhitShf, batchCardHi},
	{"q3_spread_rseq_lo", "q3", memagg.Spreadsort, 1, false, dataset.RseqShf, batchCardLo},
	{"q3_spread_rseq_hi", "q3", memagg.Spreadsort, 1, false, dataset.RseqShf, batchCardHi},
	{"q3_lparena_rseq_hi", "q3", memagg.HashLP, 1, true, dataset.RseqShf, batchCardHi},
	{"q3_sortbi2_rseq_hi", "q3", memagg.SortBI, 2, false, dataset.RseqShf, batchCardHi},
	{"q6_spread_rseq_hi", "q6", memagg.Spreadsort, 1, false, dataset.RseqShf, batchCardHi},
	{"q6_judy_rseq_hi", "q6", memagg.Judy, 1, false, dataset.RseqShf, batchCardHi},
	{"q7_btree_rseq_hi", "q7", memagg.Btree, 1, false, dataset.RseqShf, batchCardHi},
}

// q7 keeps a quarter of the key range.
const batchRangeLo, batchRangeHi = 1, batchCardHi / 4

// batchData is one generated key column with its oracle answers.
type batchData struct {
	keys    []uint64
	counts  checksum // q1
	ranged  checksum // q7 over [batchRangeLo, batchRangeHi]
	medians checksum // q3: (key, bits of the median) pairs
	median  float64  // q6
}

type dataKey struct {
	kind dataset.Kind
	card int
}

// batchRun drives batch_paper: the memagg library in-process, no server.
type batchRun struct {
	e    *env
	vals []uint64
	data map[dataKey]*batchData
	aggs []*memagg.Aggregator // one per paperGrid cell

	cellTimes [][]time.Duration // traced passes only: [cell][pass]
	passes    int
}

func newBatchRun(e *env) workloadRun {
	return &batchRun{e: e, cellTimes: make([][]time.Duration, len(paperGrid))}
}

// ops is passes over the grid: one pass takes 0.8-1.1 s on the 2-core
// reference box.
func (r *batchRun) ops() int { return max(3, r.e.seconds*9/10) }

func (r *batchRun) setup() error {
	debug.SetGCPercent(-1) // pass collects between cells; see there
	r.vals = dataset.Values(batchRows, r.e.seed)
	r.data = make(map[dataKey]*batchData)
	r.aggs = r.aggs[:0]
	for _, c := range paperGrid {
		dk := dataKey{c.kind, c.card}
		if r.data[dk] == nil {
			r.data[dk] = &batchData{
				keys: dataset.Spec{Kind: c.kind, N: batchRows, Cardinality: c.card, Seed: r.e.seed}.Keys(),
			}
		}
		opts := memagg.Options{Threads: c.threads}
		if c.arena {
			opts.Allocator = memagg.AllocArena
		}
		a, err := memagg.New(c.backend, opts)
		if err != nil {
			return err
		}
		r.aggs = append(r.aggs, a)
	}
	// Oracles, computed here once from the raw columns with nothing but
	// sorting and counting; every cell of every pass is checked against them.
	for _, c := range paperGrid {
		d := r.data[dataKey{c.kind, c.card}]
		switch {
		case c.query == "q1" && d.counts.Groups == 0:
			d.counts = checksumKeys(d.keys, c.card)
		case c.query == "q7" && d.ranged.Groups == 0:
			d.ranged = rangeOracle(d.keys, c.card, batchRangeLo, batchRangeHi)
		case c.query == "q3" && d.medians.Groups == 0:
			d.medians = mediansOracle(d.keys, r.vals, c.card)
		case c.query == "q6" && d.median == 0:
			sorted := append([]uint64(nil), d.keys...)
			sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
			d.median = agg.MedianSorted(sorted)
		}
	}
	// Warm-up pass, discarded.
	ok, _, err := r.pass(false)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("warm-up pass produced a wrong answer")
	}
	return nil
}

func rangeOracle(keys []uint64, card int, lo, hi uint64) checksum {
	t := newTally(card)
	for _, k := range keys {
		if k >= lo && k <= hi {
			t.count[k]++
		}
	}
	return t.checksum()
}

// mediansOracle buckets the values by key, sorts each bucket, and digests
// (key, median) pairs.
func mediansOracle(keys, vals []uint64, card int) checksum {
	buckets := make([][]uint64, card+1)
	for i, k := range keys {
		buckets[k] = append(buckets[k], vals[i])
	}
	var c checksum
	for k, b := range buckets {
		if len(b) == 0 {
			continue
		}
		sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
		c.add(uint64(k), math.Float64bits(agg.MedianSorted(b)))
	}
	return c
}

func checksumValues(rows []memagg.GroupValue) checksum {
	var c checksum
	for _, r := range rows {
		c.add(r.Key, math.Float64bits(r.Value))
	}
	return c
}

// runCell executes one cell and reports how long the library call took and
// whether its answer matches the oracle. The check runs off the clock.
func (r *batchRun) runCell(i int) (time.Duration, bool, error) {
	c, a := paperGrid[i], r.aggs[i]
	d := r.data[dataKey{c.kind, c.card}]
	switch c.query {
	case "q1":
		start := time.Now()
		rows := a.CountByKey(d.keys)
		el := time.Since(start)
		return el, checksumCounts(rows) == d.counts, nil
	case "q3":
		start := time.Now()
		rows := a.MedianByKey(d.keys, r.vals)
		el := time.Since(start)
		return el, checksumValues(rows) == d.medians, nil
	case "q6":
		start := time.Now()
		m, err := a.Median(d.keys)
		el := time.Since(start)
		return el, m == d.median, err
	case "q7":
		start := time.Now()
		rows, err := a.CountRange(d.keys, batchRangeLo, batchRangeHi)
		el := time.Since(start)
		ascending := sort.SliceIsSorted(rows, func(i, j int) bool { return rows[i].Key < rows[j].Key })
		return el, ascending && checksumCounts(rows) == d.ranged, err
	}
	return 0, false, fmt.Errorf("cell %s: unknown query %q", c.id, c.query)
}

// pass runs the whole grid once. Its latency is the time inside the
// library calls.
func (r *batchRun) pass(traced bool) (ok bool, lat time.Duration, err error) {
	r.passes++
	tr := r.e.tr
	if !traced {
		tr = nil
	}
	op := tr.begin("pass", 0, r.passes)
	defer tr.end(op)
	ok = true
	for i, c := range paperGrid {
		// Collect off the clock and keep the collector out of the timed call
		// (setup turned the automatic one off): whether a concurrent cycle
		// lands inside a cell, and steals the second core from a p=2 cell,
		// is otherwise the largest source of run-to-run spread here. The
		// collections still count towards cpu_us_per_row.
		runtime.GC()
		sp := tr.begin("memagg."+c.id, op, r.passes)
		el, good, err := r.runCell(i)
		tr.end(sp)
		if err != nil {
			return false, 0, fmt.Errorf("cell %s: %w", c.id, err)
		}
		if !good {
			r.e.logf("pass %d: cell %s disagrees with the oracle", r.passes, c.id)
			ok = false
		}
		lat += el
		if traced {
			r.cellTimes[i] = append(r.cellTimes[i], el)
		}
	}
	return ok, lat, nil
}

func (r *batchRun) measure(n int, traced bool) (phase, error) {
	ph := phase{lat: make([]time.Duration, 0, n)}
	cpu0 := selfCPU()
	for i := 0; i < n; i++ {
		ok, lat, err := r.pass(traced)
		if err != nil {
			return phase{}, err
		}
		ph.lat = append(ph.lat, lat)
		ph.wall += lat
		ph.attempted++
		if ok && lat <= opDeadline {
			ph.rows += uint64(len(paperGrid)) * batchRows
		} else {
			ph.failed++
		}
	}
	// The oracle checks between the cells run on this process's clock too;
	// they are the same work on every commit, so they shift cpu_us_per_row
	// by a constant and cannot hide or fake a change.
	ph.cpu = selfCPU() - cpu0
	return ph, nil
}

func (r *batchRun) verify() (checks, failed int, err error) { return 0, 0, nil }

// layers reports every cell's median over the traced passes, then splits
// each q1 cell into the paper's build and iterate phases with
// agg.CountPhases (engines that fuse the phases report all build).
func (r *batchRun) layers(phase) error {
	for i, c := range paperGrid {
		r.e.layer["agg."+c.id+"_ns_per_row"] = float64(percentile(r.cellTimes[i], 50).Nanoseconds()) / batchRows
	}
	root := r.e.tr.begin("replay.phases", 0, 0)
	defer r.e.tr.end(root)
	for _, c := range paperGrid {
		if c.query != "q1" {
			continue
		}
		var eng agg.Engine
		switch c.backend {
		case memagg.HashGLB:
			eng = agg.HashGLB(c.threads)
		case memagg.HashRX:
			eng = agg.HashRX(c.threads)
		case memagg.HashTBBSC:
			eng = agg.HashTBBSC(c.threads)
		default:
			var err error
			if eng, err = agg.ByName(string(c.backend)); err != nil {
				return err
			}
		}
		keys := r.data[dataKey{c.kind, c.card}].keys
		var build, iterate time.Duration
		r.e.tr.timed("agg.CountPhases/"+c.id, root, 0, func() {
			_, build, iterate, _ = agg.CountPhases(eng, keys)
		})
		r.e.layer["agg."+c.id+"_build_share"] = build.Seconds() / (build + iterate).Seconds()
	}
	return nil
}

func (r *batchRun) teardown() {}
