package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"time"
)

// metricDef names one metric of the benchmark contract. BENCHMARK.json at
// the repo root lists exactly these (TestBenchmarkJSONMatchesCatalogue
// keeps the two in step).
type metricDef struct {
	Name, Unit string
}

// endToEnd are the four metrics every workload reports from its untraced
// run; see README.md for the definitions.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"rows_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"cpu_us_per_row", "us"},
}

// perLayer builds the per-layer catalogue: every metric the traced run
// prints, for every workload (a workload that does not exercise a layer
// reports that layer's metrics as 0).
func perLayer() []metricDef {
	defs := []metricDef{
		{"agg.chunk_encode_ns_per_row", "ns"},
		{"agg.chunk_decode_ns_per_row", "ns"},
	}
	for _, c := range paperGrid {
		defs = append(defs, metricDef{"agg." + c.id + "_ns_per_row", "ns"})
	}
	for _, c := range paperGrid {
		if c.query == "q1" {
			defs = append(defs, metricDef{"agg." + c.id + "_build_share", "ratio"})
		}
	}
	defs = append(defs,
		metricDef{"aggserve.ingest_server_ms", "ms"},
		metricDef{"aggserve.query_server_ms", "ms"},
		metricDef{"aggserve.view_result_server_ms", "ms"},
		metricDef{"aggserve.ingest_p50_ms", "ms"},
	)
	for _, g := range refreshGets {
		defs = append(defs, metricDef{"aggserve." + g.id + "_p50_ms", "ms"})
	}
	defs = append(defs,
		metricDef{"aggserve.http_tax_ms", "ms"},
		metricDef{"aggserve.resp_bytes_per_refresh", "bytes"},
		metricDef{"aggserve.not_modified_ratio", "ratio"},

		metricDef{"stream.append_ns_per_row", "ns"},
		metricDef{"stream.flush_ms", "ms"},
		metricDef{"stream.snapshot_q1_cold_ms", "ms"},
		metricDef{"stream.snapshot_q1_warm_ms", "ms"},
		metricDef{"stream.snapshot_q1_cached_us", "us"},
		metricDef{"stream.seals", "count"},
		metricDef{"stream.merges", "count"},
		metricDef{"stream.merge_ns_per_row", "ns"},
		metricDef{"stream.append_blocked_ns_per_row", "ns"},
		metricDef{"stream.sealed_pending_max", "count"},
		metricDef{"stream.staleness_rows_p50", "count"},
		metricDef{"stream.query_fold_ms", "ms"},
		metricDef{"stream.query_scan_ms", "ms"},
		metricDef{"stream.cache_hit_ratio", "ratio"},
		metricDef{"stream.open_self_ms", "ms"},

		metricDef{"wal.append_bytes_per_row", "bytes"},
		metricDef{"wal.fsyncs", "count"},
		metricDef{"wal.fsync_ms_mean", "ms"},
		metricDef{"wal.checkpoints", "count"},
		metricDef{"wal.checkpoint_ms_mean", "ms"},
		metricDef{"wal.disk_bytes_per_row", "bytes"},
		metricDef{"wal.replay_ns_per_row", "ns"},
		metricDef{"wal.checkpoint_load_ms", "ms"},
		metricDef{"wal.recovery_server_s", "s"},

		metricDef{"cview.result_ms", "ms"},
		metricDef{"cview.update_us_mean", "us"},
		metricDef{"cview.updates", "count"},
		metricDef{"cview.reads_cached_ratio", "ratio"},
		metricDef{"cview.panes_live", "count"},

		metricDef{"driver.build_s", "s"},
		metricDef{"driver.late_p50_ms", "ms"},
		metricDef{"driver.late_max_ms", "ms"},
		metricDef{"driver.cpu_share", "ratio"},
		metricDef{"driver.trace_overhead_pct", "%"},
		metricDef{"driver.op_hi_ms", "ms"},
		metricDef{"driver.op_hi_pct", "%"},
		metricDef{"driver.op_samples", "count"},
		metricDef{"process.peak_rss_mb", "MB"},
		metricDef{"process.ingest_burst_rows_per_s", "1/s"},
	)
	return defs
}

// metric is one reported value in the contract's result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a run prints as its last line of stdout.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// newResult fills a result with every metric of defs, taking values from
// vals (missing names report 0: the layer is not on this workload's path).
func newResult(defs []metricDef, vals map[string]float64, attempted, failed int) result {
	r := result{
		Correct:   failed == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   make(map[string]metric, len(defs)),
	}
	for _, d := range defs {
		r.Metrics[d.Name] = metric{Value: vals[d.Name], Unit: d.Unit}
	}
	return r
}

// print writes every metric by name and unit (catalogue order), then the
// one-line JSON object the contract wants last.
func (r result) print(w io.Writer, defs []metricDef) error {
	for _, d := range defs {
		fmt.Fprintf(w, "%-44s %16.6g %s\n", d.Name, r.Metrics[d.Name].Value, d.Unit)
	}
	fmt.Fprintf(w, "%-44s %16d\n%-44s %16d\n", "attempted", r.Attempted, "failed", r.Failed)
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// phase is the raw outcome of one measured phase of a workload.
type phase struct {
	rows      uint64          // the workload's rows (README: per-workload definition)
	wall      time.Duration   // measured wall time
	cpu       time.Duration   // utime+stime of the system under test over the phase
	lat       []time.Duration // one latency per operation
	attempted int
	failed    int
}

// add accumulates another phase of the same run into p.
func (p *phase) add(q phase) {
	p.rows += q.rows
	p.wall += q.wall
	p.cpu += q.cpu
	p.lat = append(p.lat, q.lat...)
	p.attempted += q.attempted
	p.failed += q.failed
}

// endToEndValues derives the three measured end-to-end metrics (setup_s is
// added by the caller).
func (p phase) endToEndValues() map[string]float64 {
	return map[string]float64{
		"rows_per_s":     float64(p.rows) / p.wall.Seconds(),
		"op_p50_ms":      ms(percentile(p.lat, 50)),
		"cpu_us_per_row": float64(p.cpu.Microseconds()) / float64(p.rows),
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// percentile returns the nearest-rank p-th percentile of d (p in (0,100]);
// 0 for an empty sample. d is not modified.
func percentile(d []time.Duration, p float64) time.Duration {
	if len(d) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[nearestRank(p, len(s))-1]
}

// nearestRank is the 1-based rank of the p-th percentile in n sorted
// samples: ceil(p/100 * n), computed so that a product that is a whole
// number in exact arithmetic (99.9% of 10000) does not round up a rank.
func nearestRank(p float64, n int) int {
	rank := int(math.Ceil(p*float64(n)/100 - 1e-9))
	return min(max(rank, 1), n)
}

// hiPercentiles are the candidates for the reported tail, highest first.
var hiPercentiles = []float64{99.99, 99.9, 99, 95, 90, 75}

// highestSupported picks the highest percentile of hiPercentiles that has
// at least ten samples beyond it in a sample of n (the choosing-metrics
// rule for reporting a tail); ok is false when even p75 has fewer.
func highestSupported(n int) (p float64, ok bool) {
	for _, p := range hiPercentiles {
		if n >= 1 && n-nearestRank(p, n) >= 10 { // samples strictly beyond it
			return p, true
		}
	}
	return 0, false
}

// medianFloat returns the median of v (mean of the middle pair for an even
// count); 0 for an empty slice.
func medianFloat(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
