package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"time"

	"memagg"
	"memagg/internal/dataset"
)

// dash_refresh constants; README.md has the reasoning.
const (
	dashGroups        = 32768
	dashPreloadChunks = 256     // 4,194,304 rows over every group
	dashChunkRows     = 16384   // preload chunk; also the hot keys a live chunk covers once each
	dashLiveRate      = 125_000 // rows/s, open loop, beside the reads: a seal about every 130 ms
	dashLiveChunks    = 32      // permutation chunks over the hot keys, cycled
	dashWarmRefreshes = 20
	dashPerSecond     = 40 // measured refreshes per --seconds
	dashVerifyEvery   = 16
	dashPaneRows      = 65536 // four live chunks; about half a second
	dashPanes         = 8
	dashRangeHi       = dashGroups / 8 // q7 covers 1/8 of the key range
)

// dashViews are the two continuous views the dashboard reads.
var dashViews = []memagg.ViewSpec{
	{Name: "tumble", Query: "q1", PaneRows: dashPaneRows, Panes: dashPanes},
	{Name: "slide", Query: "q2", PaneRows: dashPaneRows, Panes: dashPanes, Sliding: true},
}

// refreshGet is one of the eight GETs of a dashboard refresh.
type refreshGet struct {
	id, path   string
	revalidate bool // send If-None-Match with the ETag the first GET returned
	rows       int  // result rows by construction (0: not counted)
}

// refreshGets is the fixed order of one refresh. The last GET revalidates
// the first; whether it answers 304 depends on whether a seal landed in
// between, so its rows are not counted.
var refreshGets = []refreshGet{
	{id: "q1", path: "/v1/query?q=q1", rows: dashGroups},
	{id: "q2", path: "/v1/query?q=q2", rows: dashGroups},
	{id: "q7", path: fmt.Sprintf("/v1/query?q=q7&lo=1&hi=%d", dashRangeHi), rows: dashRangeHi},
	{id: "sum", path: "/v1/query?q=sum", rows: dashGroups},
	{id: "q5", path: "/v1/query?q=q5", rows: 1},
	{id: "view_tumble", path: "/v1/views/tumble/result", rows: dashChunkRows},
	{id: "view_slide", path: "/v1/views/slide/result", rows: dashChunkRows},
	{id: "q1_revalidate", path: "/v1/query?q=q1", revalidate: true},
}

// rowsPerRefresh is the result rows one refresh returns, by construction.
func rowsPerRefresh() (n uint64) {
	for _, g := range refreshGets {
		n += uint64(g.rows)
	}
	return n
}

// dashRun drives dash_refresh: connection 1 ingests open-loop so the
// watermark keeps moving, connection 2 refreshes the dashboard closed-loop.
type dashRun struct {
	e *env

	preload, live *pool
	oracle        dashOracle
	srv           *server
	reads         *http.Client // connection 2

	stopLive context.CancelFunc
	liveDone chan pacedRun

	refreshN int // refreshes so far, warm-up included: the span op id
	traced   dashTrace
}

// dashTrace accumulates what the traced blocks of a run observed.
type dashTrace struct {
	counters    promSample        // server counters' growth over the traced blocks
	getLat      [][]time.Duration // per GET of refreshGets: client latencies
	respBytes   int64
	notModified int
	samples     []memagg.StreamStats
	selfCPU     time.Duration
	panesLive   float64
}

func newDashRun(e *env) workloadRun {
	return &dashRun{e: e, traced: dashTrace{counters: promSample{}, getLat: make([][]time.Duration, len(refreshGets))}}
}

func (r *dashRun) ops() int { return dashPerSecond * r.e.seconds }

func (r *dashRun) setup() error {
	r.preload = newPool(dataset.RseqShf, dashPreloadChunks, dashChunkRows, dashGroups, r.e.seed)
	r.live = newPermPool(dashLiveChunks, dashChunkRows, r.e.seed)
	r.oracle = newDashOracle(r.preload)
	srv, _, err := r.e.fleet.start(r.e.aggserve)
	if err != nil {
		return err
	}
	r.srv, r.reads = srv, newClient()
	// Only the state the preload leaves matters, not how fast it went in.
	w := runPaced(context.Background(), srv, srv.client, r.preload, 0, len(r.preload.bodies), loadRate)
	if w.failed > 0 {
		return fmt.Errorf("preload: %d of %d ingests failed", w.failed, len(w.sent))
	}
	if _, err := srv.settle(); err != nil {
		return err
	}
	// Registered after the preload, so the windows hold live rows only.
	for _, v := range dashViews {
		body, err := json.Marshal(map[string]any{
			"name": v.Name, "query": v.Query, "pane_rows": v.PaneRows, "panes": v.Panes, "sliding": v.Sliding,
		})
		if err != nil {
			return err
		}
		code, err := post(srv.client, srv.base+"/v1/views", "application/json", body)
		if err != nil {
			return err
		}
		if code != http.StatusCreated {
			return fmt.Errorf("POST /v1/views %s: status %d", v.Name, code)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	r.stopLive, r.liveDone = cancel, make(chan pacedRun, 1)
	go func() {
		// Bounded far beyond any run this driver makes; cancelled before then.
		r.liveDone <- runPaced(ctx, srv, srv.client, r.live, 0, dashLiveRate*170/dashChunkRows, dashLiveRate)
	}()
	// The views' windows are empty until the first live seal publishes.
	for deadline := time.Now().Add(opDeadline); ; time.Sleep(2 * time.Millisecond) {
		st, err := srv.via(r.reads).stats()
		if err != nil {
			return err
		}
		if st.Watermark > uint64(r.preload.rows()) {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("no live row visible %v after the live ingest began", opDeadline)
		}
	}
	ph, err := r.refreshes(dashWarmRefreshes, false)
	if err != nil {
		return err
	}
	if ph.failed > 0 {
		return fmt.Errorf("warm-up: %d of %d refreshes failed", ph.failed, ph.attempted)
	}
	return nil
}

func (r *dashRun) measure(n int, traced bool) (phase, error) {
	var (
		before promSample
		err    error
	)
	if traced {
		if before, err = r.srv.via(r.reads).scrape(); err != nil {
			return phase{}, err
		}
	}
	cpu0, err := r.srv.cpu()
	if err != nil {
		return phase{}, err
	}
	self0 := selfCPU()
	ph, err := r.refreshes(n, traced)
	if err != nil {
		return phase{}, err
	}
	cpu1, err := r.srv.cpu()
	if err != nil {
		return phase{}, err
	}
	ph.cpu = cpu1 - cpu0
	if !r.srv.alive() {
		return phase{}, fmt.Errorf("aggserve died during the measured phase\n%s", r.srv.log.String())
	}
	if traced {
		after, err := r.srv.via(r.reads).scrape()
		if err != nil {
			return phase{}, err
		}
		r.traced.counters.add(after.since(before))
		r.traced.panesLive = after["memagg_cview_panes_live"]
		r.traced.selfCPU += selfCPU() - self0
	}
	return ph, nil
}

// refreshes runs n dashboard refreshes back to back on connection 2.
// Every dashVerifyEvery-th is decoded in full and checked against the
// oracle; the others only have their status checked and body drained.
func (r *dashRun) refreshes(n int, traced bool) (phase, error) {
	tr := r.e.tr
	if !traced {
		tr = nil
	}
	ph := phase{lat: make([]time.Duration, 0, n)}
	bodies := make([]bytes.Buffer, len(refreshGets))
	for i := 0; i < n; i++ {
		r.refreshN++
		verify := i%dashVerifyEvery == 0
		op := tr.begin("refresh", 0, r.refreshN)
		start := time.Now()
		ok := true
		etag := ""
		for g, get := range refreshGets {
			sp := tr.begin("GET "+get.id, op, r.refreshN)
			t0 := time.Now()
			req, err := http.NewRequest(http.MethodGet, r.srv.base+get.path, nil)
			if err != nil {
				return phase{}, err
			}
			if get.revalidate {
				req.Header.Set("If-None-Match", etag)
			}
			resp, err := r.reads.Do(req)
			if err != nil {
				r.e.logf("refresh %d GET %s: %v", i, get.id, err)
				ok = false
				tr.end(sp)
				continue
			}
			var sink io.Writer = io.Discard
			if verify {
				bodies[g].Reset()
				sink = &bodies[g]
			}
			size, err := io.Copy(sink, resp.Body)
			resp.Body.Close()
			tr.end(sp)
			if g == 0 {
				etag = resp.Header.Get("ETag")
			}
			switch {
			case err != nil:
				ok = false
			case resp.StatusCode == http.StatusNotModified && get.revalidate:
				bodies[g].Reset()
				if traced {
					r.traced.notModified++
				}
			case resp.StatusCode != http.StatusOK:
				r.e.logf("refresh %d GET %s: status %d", i, get.id, resp.StatusCode)
				ok = false
			}
			if traced {
				r.traced.getLat[g] = append(r.traced.getLat[g], time.Since(t0))
				r.traced.respBytes += size
			}
		}
		lat := time.Since(start)
		tr.end(op)
		if ok && verify {
			if err := r.oracle.checkRefresh(bodies); err != nil {
				r.e.logf("refresh %d: %v", i, err)
				ok = false
			}
		}
		ph.lat = append(ph.lat, lat)
		ph.wall += lat
		ph.attempted++
		if !ok || lat > opDeadline {
			ph.failed++
		} else {
			ph.rows += rowsPerRefresh()
		}
		if traced && i%dashVerifyEvery == 0 {
			// Between refreshes, off the clock, on this same connection: the
			// issue allows two connections and both are taken.
			if st, err := r.srv.via(r.reads).stats(); err == nil {
				r.traced.samples = append(r.traced.samples, st)
			}
		}
	}
	return ph, nil
}

// layers attributes the traced blocks (ph is their sum) to layers, then
// replays the live chunks through a private stream's views.
func (r *dashRun) layers(ph phase) error {
	l, t := r.e.layer, r.traced
	n := float64(ph.attempted)
	const hist = "memagg_http_request_seconds"
	l["aggserve.query_server_ms"] = 1e3 * t.counters.histMean(hist, `{route="/query"}`)
	l["aggserve.view_result_server_ms"] = 1e3 * t.counters.histMean(hist, `{route="/views/"}`)
	l["aggserve.ingest_server_ms"] = 1e3 * t.counters.histMean(hist, `{route="/ingest"}`)
	for g, get := range refreshGets {
		l["aggserve."+get.id+"_p50_ms"] = ms(percentile(t.getLat[g], 50))
	}
	serverPerRefresh := 1e3 * (t.counters[hist+`_sum{route="/query"}`] + t.counters[hist+`_sum{route="/views/"}`]) / n
	l["aggserve.http_tax_ms"] = ms(ph.wall)/n - serverPerRefresh // mean against mean
	l["aggserve.resp_bytes_per_refresh"] = float64(t.respBytes) / n
	l["aggserve.not_modified_ratio"] = float64(t.notModified) / n

	streamLayers(l, t.counters, t.counters["memagg_stream_rows_total"], t.samples)
	l["stream.query_fold_ms"] = 1e3 * t.counters.histMean("memagg_stream_query_fold_seconds", "")
	l["stream.query_scan_ms"] = 1e3 * t.counters.histMean("memagg_stream_query_scan_seconds", "")
	hits := t.counters["memagg_stream_query_cache_hits_total"]
	if total := hits + t.counters["memagg_stream_query_cache_misses_total"]; total > 0 {
		l["stream.cache_hit_ratio"] = hits / total
	}

	l["cview.update_us_mean"] = 1e6 * t.counters.histMean("memagg_cview_update_seconds", "")
	l["cview.updates"] = t.counters["memagg_cview_updates_total"]
	if reads := t.counters["memagg_cview_reads_total"]; reads > 0 {
		l["cview.reads_cached_ratio"] = t.counters["memagg_cview_reads_cached_total"] / reads
	}
	l["cview.panes_live"] = t.panesLive
	l["driver.cpu_share"] = t.selfCPU.Seconds() / (t.selfCPU + ph.cpu).Seconds()

	rss, err := r.srv.peakRSSMB()
	if err != nil {
		return err
	}
	l["process.peak_rss_mb"] = rss
	return replayViewLayers(r.e, r.live)
}

// stopIngest ends the live ingest and checks it held its schedule.
func (r *dashRun) stopIngest() (pacedRun, error) {
	if r.stopLive == nil {
		return pacedRun{}, nil
	}
	r.stopLive()
	r.stopLive = nil
	run := <-r.liveDone
	if run.failed > 0 {
		return run, fmt.Errorf("live ingest: %d of %d ingests failed", run.failed, len(run.sent))
	}
	return run, run.checkPacing()
}

func (r *dashRun) verify() (checks, failed int, err error) {
	run, err := r.stopIngest()
	if err != nil {
		return 0, 0, err
	}
	if r.e.trace {
		r.e.layer["driver.late_p50_ms"] = ms(percentile(run.late, 50))
		r.e.layer["driver.late_max_ms"] = ms(percentile(run.late, 100))
	}
	if _, err := r.srv.settle(); err != nil {
		return 0, 0, err
	}
	want := uint64(r.preload.rows()) + uint64(len(run.sent))*dashChunkRows
	got, err := r.srv.count()
	if err != nil {
		return 0, 0, err
	}
	if got != want {
		r.e.logf("q4 = %d, acknowledged %d rows", got, want)
		failed++
	}
	return 1, failed, nil
}

func (r *dashRun) teardown() {
	if r.stopLive != nil {
		r.stopLive()
		<-r.liveDone
		r.stopLive = nil
	}
	if r.reads != nil {
		r.reads.CloseIdleConnections()
	}
	if r.srv != nil {
		r.srv.kill()
		r.srv = nil
	}
}

// dashOracle answers every dashboard query in closed form at any watermark:
// the preload's per-key state is known exactly, and every live chunk adds
// one row of value liveValue(k) to each hot key k in 1..dashChunkRows.
type dashOracle struct {
	base        *tally
	baseRows    uint64
	baseSum     uint64
	liveSumEach uint64 // sum of liveValue over one live chunk
}

func newDashOracle(preload *pool) dashOracle {
	o := dashOracle{base: newTally(preload.groups), baseRows: uint64(preload.rows())}
	for _, c := range preload.chunks {
		o.base.add(c, 1)
	}
	for _, s := range o.base.sum {
		o.baseSum += s
	}
	for k := uint64(1); k <= dashChunkRows; k++ {
		o.liveSumEach += liveValue(k)
	}
	return o
}

// at returns key k's exact (count, sum) once n live chunks are visible.
func (o dashOracle) at(k, n uint64) (count, sum uint64) {
	count, sum = o.base.count[k], o.base.sum[k]
	if k <= dashChunkRows {
		count += n
		sum += n * liveValue(k)
	}
	return count, sum
}

// liveChunks converts a snapshot watermark into whole live chunks.
func (o dashOracle) liveChunks(watermark uint64) (uint64, error) {
	if watermark < o.baseRows || (watermark-o.baseRows)%dashChunkRows != 0 {
		return 0, fmt.Errorf("watermark %d is not the preload plus whole chunks", watermark)
	}
	return (watermark - o.baseRows) / dashChunkRows, nil
}

func closeTo(got, want float64) bool {
	return math.Abs(got-want) <= 1e-9*math.Max(1, math.Abs(want))
}

// viewResponse is the part of aggserve's view-result body the oracle reads.
type viewResponse struct {
	WindowStart uint64          `json:"window_start"`
	WindowEnd   uint64          `json:"window_end"`
	Rows        uint64          `json:"rows"`
	Groups      int             `json:"groups"`
	Truncated   bool            `json:"truncated"`
	Value       json.RawMessage `json:"value"`
}

// checkRefresh decodes one refresh's bodies (in refreshGets order; an empty
// body is a 304) and checks each against the closed-form answer at the
// watermark that response reports.
func (o dashOracle) checkRefresh(bodies []bytes.Buffer) error {
	for g, get := range refreshGets {
		b := bodies[g].Bytes()
		if len(b) == 0 {
			if get.revalidate {
				continue
			}
			return fmt.Errorf("%s: empty body", get.id)
		}
		var err error
		switch get.id {
		case "view_tumble", "view_slide":
			err = o.checkView(get.id, b)
		default:
			err = o.checkQuery(get, b)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", get.id, err)
		}
	}
	return nil
}

// eachRow decodes a vector result into rows of T, checks there are want of
// them with keys in 1..maxKey, and hands each to check.
func eachRow[T any](raw json.RawMessage, want int, maxKey uint64, key func(T) uint64, check func(i int, row T) error) error {
	var rows []T
	if err := json.Unmarshal(raw, &rows); err != nil {
		return err
	}
	if len(rows) != want {
		return fmt.Errorf("%d rows, want %d", len(rows), want)
	}
	for i, row := range rows {
		if k := key(row); k < 1 || k > maxKey {
			return fmt.Errorf("key %d out of range", k)
		}
		if err := check(i, row); err != nil {
			return err
		}
	}
	return nil
}

func countKey(r memagg.GroupCount) uint64 { return r.Key }
func valueKey(r memagg.GroupValue) uint64 { return r.Key }
func statKey(r memagg.GroupStat) uint64   { return r.Key }

func (o dashOracle) checkQuery(get refreshGet, body []byte) error {
	var resp queryResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return err
	}
	n, err := o.liveChunks(resp.Watermark)
	if err != nil {
		return err
	}
	switch get.id {
	case "q1", "q1_revalidate", "q7":
		want := dashGroups
		if get.id == "q7" {
			want = dashRangeHi
		}
		return eachRow(resp.Result, want, dashGroups, countKey, func(i int, row memagg.GroupCount) error {
			if get.id == "q7" && row.Key != uint64(i+1) {
				return fmt.Errorf("row %d has key %d: not ascending over the range", i, row.Key)
			}
			if c, _ := o.at(row.Key, n); row.Count != c {
				return fmt.Errorf("key %d: count %d, want %d", row.Key, row.Count, c)
			}
			return nil
		})
	case "q2":
		return eachRow(resp.Result, dashGroups, dashGroups, valueKey, func(_ int, row memagg.GroupValue) error {
			c, s := o.at(row.Key, n)
			if !closeTo(row.Value, float64(s)/float64(c)) {
				return fmt.Errorf("key %d: avg %v, want %v", row.Key, row.Value, float64(s)/float64(c))
			}
			return nil
		})
	case "sum":
		return eachRow(resp.Result, dashGroups, dashGroups, statKey, func(_ int, row memagg.GroupStat) error {
			if _, s := o.at(row.Key, n); row.Value != s {
				return fmt.Errorf("key %d: sum %d, want %d", row.Key, row.Value, s)
			}
			return nil
		})
	case "q5":
		var avg float64
		if err := json.Unmarshal(resp.Result, &avg); err != nil {
			return err
		}
		want := float64(o.baseSum+n*o.liveSumEach) / float64(resp.Watermark)
		if !closeTo(avg, want) {
			return fmt.Errorf("avg %v, want %v", avg, want)
		}
	}
	return nil
}

// checkView checks a view result: its window holds whole live chunks only,
// so every hot key counts rows/dashChunkRows and averages liveValue(k).
func (o dashOracle) checkView(id string, body []byte) error {
	var v viewResponse
	if err := json.Unmarshal(body, &v); err != nil {
		return err
	}
	if v.Truncated || v.Rows == 0 || v.Rows%dashChunkRows != 0 {
		return fmt.Errorf("window (%d, %d] holds %d rows, truncated=%v", v.WindowStart, v.WindowEnd, v.Rows, v.Truncated)
	}
	if v.Groups != dashChunkRows {
		return fmt.Errorf("%d groups, want %d", v.Groups, dashChunkRows)
	}
	if id == "view_tumble" {
		return eachRow(v.Value, dashChunkRows, dashChunkRows, countKey, func(_ int, row memagg.GroupCount) error {
			if row.Count != v.Rows/dashChunkRows {
				return fmt.Errorf("key %d: count %d, want %d", row.Key, row.Count, v.Rows/dashChunkRows)
			}
			return nil
		})
	}
	return eachRow(v.Value, dashChunkRows, dashChunkRows, valueKey, func(_ int, row memagg.GroupValue) error {
		if !closeTo(row.Value, float64(liveValue(row.Key))) {
			return fmt.Errorf("key %d: avg %v, want %d", row.Key, row.Value, liveValue(row.Key))
		}
		return nil
	})
}
