package main

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"memagg"
	"memagg/internal/cluster"
)

// newTestServer starts a holistic stream with a tiny seal threshold so
// flushed rows become visible immediately, wrapped in the HTTP server.
func newTestServer(t *testing.T) (*server, *memagg.Stream) {
	t.Helper()
	s := memagg.NewStream(memagg.StreamOptions{Shards: 2, SealRows: 4, Holistic: true})
	t.Cleanup(func() { _ = s.Close() })
	return newServer(s), s
}

func do(t *testing.T, srv http.Handler, method, target, body string) *httptest.ResponseRecorder {
	t.Helper()
	var r *http.Request
	if body != "" {
		r = httptest.NewRequest(method, target, strings.NewReader(body))
	} else {
		r = httptest.NewRequest(method, target, nil)
	}
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, r)
	return w
}

func TestIngestFlushQueryRoundTrip(t *testing.T) {
	srv, _ := newTestServer(t)

	w := do(t, srv, http.MethodPost, "/v1/ingest", `{"keys":[1,2,1,3],"vals":[10,20,30,40]}`)
	if w.Code != http.StatusOK {
		t.Fatalf("ingest = %d: %s", w.Code, w.Body)
	}
	if w := do(t, srv, http.MethodPost, "/v1/flush", ""); w.Code != http.StatusOK {
		t.Fatalf("flush = %d: %s", w.Code, w.Body)
	}

	w = do(t, srv, http.MethodGet, "/v1/query?q=q1", "")
	if w.Code != http.StatusOK {
		t.Fatalf("query q1 = %d: %s", w.Code, w.Body)
	}
	var resp struct {
		Query     string `json:"query"`
		Watermark uint64 `json:"watermark"`
		Result    []struct {
			Key   uint64 `json:"Key"`
			Count uint64 `json:"Count"`
		} `json:"result"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("q1 response: %v", err)
	}
	if resp.Watermark != 4 || len(resp.Result) != 3 {
		t.Fatalf("q1 = watermark %d, %d groups; want 4, 3", resp.Watermark, len(resp.Result))
	}
	counts := map[uint64]uint64{}
	for _, r := range resp.Result {
		counts[r.Key] = r.Count
	}
	if counts[1] != 2 || counts[2] != 1 || counts[3] != 1 {
		t.Fatalf("q1 counts = %v", counts)
	}

	// A holistic stream answers q3 over the same snapshot state.
	if w := do(t, srv, http.MethodGet, "/v1/query?q=q3", ""); w.Code != http.StatusOK {
		t.Fatalf("query q3 = %d: %s", w.Code, w.Body)
	}
}

func TestQueryErrors(t *testing.T) {
	srv, _ := newTestServer(t)
	cases := []struct {
		target string
		want   int
	}{
		{"/v1/query?q=", http.StatusBadRequest},
		{"/v1/query?q=nonsense", http.StatusBadRequest},
		{"/v1/query?q=q7", http.StatusBadRequest},       // missing lo/hi
		{"/v1/query?q=quantile", http.StatusBadRequest}, // missing p
		{"/v1/query?q=q7&lo=9&hi=3", http.StatusOK},     // empty range is legal
		{"/v1/query?q=q1&extra=1", http.StatusOK},
	}
	for _, c := range cases {
		if w := do(t, srv, http.MethodGet, c.target, ""); w.Code != c.want {
			t.Errorf("GET %s = %d want %d (%s)", c.target, w.Code, c.want, w.Body)
		}
	}
	if w := do(t, srv, http.MethodPost, "/v1/query?q=q1", ""); w.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST /query = %d want 405", w.Code)
	}
	if w := do(t, srv, http.MethodPost, "/v1/ingest", `{bad json`); w.Code != http.StatusBadRequest {
		t.Errorf("bad ingest body = %d want 400", w.Code)
	}
	if w := do(t, srv, http.MethodPost, "/v1/ingest", `{"keys":[1],"vals":[1,2]}`); w.Code != http.StatusBadRequest {
		t.Errorf("more vals than keys = %d want 400", w.Code)
	}
}

func TestUnsupportedQueryOnDistributiveStream(t *testing.T) {
	s := memagg.NewStream(memagg.StreamOptions{Shards: 1, SealRows: 4})
	t.Cleanup(func() { _ = s.Close() })
	srv := newServer(s)
	if w := do(t, srv, http.MethodGet, "/v1/query?q=q3", ""); w.Code != http.StatusUnprocessableEntity {
		t.Fatalf("q3 on distributive stream = %d want 422 (%s)", w.Code, w.Body)
	}
}

func TestQueryCanceledContext(t *testing.T) {
	srv, s := newTestServer(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := httptest.NewRequest(http.MethodGet, "/v1/query?q=q1", nil).WithContext(ctx)
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, r)
	if w.Code != statusClientClosedRequest {
		t.Fatalf("canceled query = %d want %d (%s)", w.Code, statusClientClosedRequest, w.Body)
	}
	if !strings.Contains(w.Body.String(), context.Canceled.Error()) {
		t.Fatalf("499 body does not carry the context error: %s", w.Body)
	}

	// An already-expired deadline behaves the same as an explicit cancel.
	dctx, dcancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer dcancel()
	r = httptest.NewRequest(http.MethodGet, "/v1/query?q=q1", nil).WithContext(dctx)
	w = httptest.NewRecorder()
	srv.ServeHTTP(w, r)
	if w.Code != statusClientClosedRequest {
		t.Fatalf("expired-deadline query = %d want %d (%s)", w.Code, statusClientClosedRequest, w.Body)
	}

	// Cancellation against a closed stream still answers 499, not a panic
	// or a 500.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r = httptest.NewRequest(http.MethodGet, "/v1/query?q=q1", nil).WithContext(ctx)
	w = httptest.NewRecorder()
	srv.ServeHTTP(w, r)
	if w.Code != statusClientClosedRequest {
		t.Fatalf("canceled query on closed stream = %d want %d (%s)", w.Code, statusClientClosedRequest, w.Body)
	}
}

// TestIngestDuringShutdown pins the shutdown ordering contract: once
// Stream.Close has run (srv.Shutdown drains handlers first in main, but a
// request can still race the close), /ingest and /flush answer 503 with
// the ErrClosed sentinel in the body, and queries keep serving the final
// state.
func TestIngestDuringShutdown(t *testing.T) {
	srv, s := newTestServer(t)
	if w := do(t, srv, http.MethodPost, "/v1/ingest", `{"keys":[1,2],"vals":[1,2]}`); w.Code != http.StatusOK {
		t.Fatalf("ingest = %d", w.Code)
	}
	if w := do(t, srv, http.MethodPost, "/v1/flush", ""); w.Code != http.StatusOK {
		t.Fatalf("flush = %d", w.Code)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	w := do(t, srv, http.MethodPost, "/v1/ingest", `{"keys":[9],"vals":[9]}`)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("ingest after close = %d want 503 (%s)", w.Code, w.Body)
	}
	if !strings.Contains(w.Body.String(), memagg.ErrClosed.Error()) {
		t.Fatalf("503 body does not carry ErrClosed: %s", w.Body)
	}
	if w := do(t, srv, http.MethodPost, "/v1/flush", ""); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("flush after close = %d want 503 (%s)", w.Code, w.Body)
	}

	// The closed stream still serves its final, fully merged state.
	w = do(t, srv, http.MethodGet, "/v1/query?q=q4", "")
	if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), `"result":2`) {
		t.Fatalf("query after close = %d: %s", w.Code, w.Body)
	}
}

// TestDurableServerRecoversOnBoot runs the full serving lifecycle twice
// over one data directory: ingest through HTTP, shut down (final
// checkpoint), boot a second server and verify it answers queries at the
// recovered watermark without any re-ingest.
func TestDurableServerRecoversOnBoot(t *testing.T) {
	dir := t.TempDir()
	open := func() *memagg.Stream {
		s, err := memagg.OpenStream(memagg.StreamOptions{
			Shards:   2,
			SealRows: 4,
			Holistic: true,
			Durability: memagg.StreamDurability{
				Dir:        dir,
				SyncPolicy: "always",
			},
		})
		if err != nil {
			t.Fatalf("open durable stream: %v", err)
		}
		return s
	}

	s := open()
	srv := newServer(s)
	if w := do(t, srv, http.MethodPost, "/v1/ingest", `{"keys":[1,2,1,3],"vals":[10,20,30,40]}`); w.Code != http.StatusOK {
		t.Fatalf("ingest = %d: %s", w.Code, w.Body)
	}
	if w := do(t, srv, http.MethodPost, "/v1/flush", ""); w.Code != http.StatusOK {
		t.Fatalf("flush = %d", w.Code)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := open()
	t.Cleanup(func() { _ = s2.Close() })
	srv2 := newServer(s2)

	var st memagg.StreamStats
	w := do(t, srv2, http.MethodGet, "/v1/stats", "")
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatalf("/v1/stats: %v", err)
	}
	if !st.Durable || st.Watermark != 4 || st.CheckpointWatermark != 4 {
		t.Fatalf("recovered stats = %+v, want durable watermark 4 from checkpoint", st)
	}

	w = do(t, srv2, http.MethodGet, "/v1/query?q=q1", "")
	if w.Code != http.StatusOK {
		t.Fatalf("query on recovered server = %d: %s", w.Code, w.Body)
	}
	var resp struct {
		Watermark uint64 `json:"watermark"`
		Result    []struct {
			Key   uint64 `json:"Key"`
			Count uint64 `json:"Count"`
		} `json:"result"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("q1 response: %v", err)
	}
	counts := map[uint64]uint64{}
	for _, r := range resp.Result {
		counts[r.Key] = r.Count
	}
	if resp.Watermark != 4 || counts[1] != 2 || counts[2] != 1 || counts[3] != 1 {
		t.Fatalf("recovered q1 = watermark %d counts %v", resp.Watermark, counts)
	}
	// Holistic state (value multisets) survived the round trip too.
	if w := do(t, srv2, http.MethodGet, "/v1/query?q=q3", ""); w.Code != http.StatusOK {
		t.Fatalf("q3 on recovered server = %d: %s", w.Code, w.Body)
	}
	// WAL metrics are live on the recovered server's /metrics.
	if w := do(t, srv2, http.MethodGet, "/v1/metrics", ""); !strings.Contains(w.Body.String(), "memagg_wal_checkpoint_watermark_rows 4") {
		t.Fatalf("/v1/metrics missing WAL checkpoint watermark gauge")
	}
}

func TestMetricsEndpoint(t *testing.T) {
	srv, _ := newTestServer(t)

	// Generate some traffic first so the route counters have values.
	do(t, srv, http.MethodPost, "/v1/ingest", `{"keys":[1,2],"vals":[1,2]}`)
	do(t, srv, http.MethodPost, "/v1/flush", "")
	do(t, srv, http.MethodGet, "/v1/query?q=q1", "")

	w := do(t, srv, http.MethodGet, "/v1/metrics", "")
	if w.Code != http.StatusOK {
		t.Fatalf("/v1/metrics = %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/v1/metrics content-type = %q", ct)
	}
	body := w.Body.String()
	for _, want := range []string{
		"# TYPE memagg_engine_phase_seconds histogram", // global: engine phases (header even when empty)
		"# TYPE memagg_arena_chunks_total counter",     // global: arena accounting
		"memagg_stream_rows_total 2",                   // stream: ingest counter
		"# TYPE memagg_stream_append_seconds histogram",
		`memagg_http_requests_total{route="/ingest",code="200"} 1`, // server: route counters
		`memagg_http_request_seconds_bucket{route="/query",`,
		"memagg_stream_seals_total",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/v1/metrics missing %q", want)
		}
	}

	// Prometheus text format sanity: every non-comment line is
	// "name{labels} value" with a parseable float value.
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if i := strings.LastIndexByte(line, ' '); i < 0 {
			t.Fatalf("unparseable metrics line %q", line)
		}
	}
}

func TestStatsEndpoint(t *testing.T) {
	srv, _ := newTestServer(t)
	do(t, srv, http.MethodPost, "/v1/ingest", `{"keys":[1,1,2],"vals":[1,2,3]}`)
	do(t, srv, http.MethodPost, "/v1/flush", "")
	w := do(t, srv, http.MethodGet, "/v1/stats", "")
	if w.Code != http.StatusOK {
		t.Fatalf("/v1/stats = %d", w.Code)
	}
	var st memagg.StreamStats
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatalf("/v1/stats not JSON: %v", err)
	}
	if st.Ingested != 3 || st.Watermark != 3 || st.Batches != 1 || st.Seals == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestQueryETagConditional covers the watermark-as-ETag contract: every
// query response carries `ETag: "<watermark>"`, a matching If-None-Match
// short-circuits to 304 with no body, and once the watermark advances the
// stale validator misses and a full response returns with the new tag.
func TestQueryETagConditional(t *testing.T) {
	srv, _ := newTestServer(t)
	if w := do(t, srv, http.MethodPost, "/v1/ingest", `{"keys":[1,2,1,3],"vals":[10,20,30,40]}`); w.Code != http.StatusOK {
		t.Fatalf("ingest = %d: %s", w.Code, w.Body)
	}
	if w := do(t, srv, http.MethodPost, "/v1/flush", ""); w.Code != http.StatusOK {
		t.Fatalf("flush = %d: %s", w.Code, w.Body)
	}

	w := do(t, srv, http.MethodGet, "/v1/query?q=q1", "")
	if w.Code != http.StatusOK {
		t.Fatalf("query = %d: %s", w.Code, w.Body)
	}
	etag := w.Header().Get("ETag")
	if etag != `"4"` {
		t.Fatalf("ETag = %q, want %q", etag, `"4"`)
	}

	cond := func(inm string) *httptest.ResponseRecorder {
		r := httptest.NewRequest(http.MethodGet, "/v1/query?q=q1", nil)
		r.Header.Set("If-None-Match", inm)
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, r)
		return w
	}
	for _, inm := range []string{etag, "W/" + etag, `"7", ` + etag, "*"} {
		w := cond(inm)
		if w.Code != http.StatusNotModified {
			t.Errorf("If-None-Match %q = %d, want 304", inm, w.Code)
		}
		if w.Header().Get("ETag") != etag {
			t.Errorf("304 for %q lost the ETag header: %q", inm, w.Header().Get("ETag"))
		}
		if w.Body.Len() != 0 {
			t.Errorf("304 for %q carried a body: %s", inm, w.Body)
		}
	}
	if w := cond(`"3"`); w.Code != http.StatusOK {
		t.Errorf("stale If-None-Match = %d, want 200", w.Code)
	}

	// Advance the watermark; the old validator must stop matching.
	if w := do(t, srv, http.MethodPost, "/v1/ingest", `{"keys":[9],"vals":[90]}`); w.Code != http.StatusOK {
		t.Fatalf("ingest = %d: %s", w.Code, w.Body)
	}
	if w := do(t, srv, http.MethodPost, "/v1/flush", ""); w.Code != http.StatusOK {
		t.Fatalf("flush = %d: %s", w.Code, w.Body)
	}
	w = cond(etag)
	if w.Code != http.StatusOK {
		t.Fatalf("advanced watermark with old validator = %d, want 200", w.Code)
	}
	if got := w.Header().Get("ETag"); got != `"5"` {
		t.Errorf("advanced ETag = %q, want %q", got, `"5"`)
	}
}

// TestHealthzReadyz: liveness always answers while the stream is up;
// readiness flips to 503 once the stream closes — the router's
// membership-gating contract.
func TestHealthzReadyz(t *testing.T) {
	srv, s := newTestServer(t)

	if w := do(t, srv, http.MethodGet, "/v1/healthz", ""); w.Code != http.StatusOK {
		t.Fatalf("healthz = %d: %s", w.Code, w.Body)
	}
	if w := do(t, srv, http.MethodGet, "/v1/readyz", ""); w.Code != http.StatusOK {
		t.Fatalf("readyz = %d: %s", w.Code, w.Body)
	}

	_ = s.Close()
	// Liveness is not readiness: the process still serves (queries keep
	// working after Close), but it must not receive sharded ingest.
	if w := do(t, srv, http.MethodGet, "/v1/healthz", ""); w.Code != http.StatusOK {
		t.Fatalf("healthz after close = %d: %s", w.Code, w.Body)
	}
	if w := do(t, srv, http.MethodGet, "/v1/readyz", ""); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz after close = %d, want 503: %s", w.Code, w.Body)
	}
}

// TestPartialsEndpoint: /partials serves the snapshot's partial set in
// the cluster wire format, tagged with the watermark it covers.
func TestPartialsEndpoint(t *testing.T) {
	srv, _ := newTestServer(t)
	do(t, srv, http.MethodPost, "/v1/ingest", `{"keys":[1,2,1,3],"vals":[10,20,30,40]}`)
	if w := do(t, srv, http.MethodPost, "/v1/flush", ""); w.Code != http.StatusOK {
		t.Fatalf("flush = %d", w.Code)
	}

	w := do(t, srv, http.MethodGet, "/v1/partials", "")
	if w.Code != http.StatusOK {
		t.Fatalf("partials = %d: %s", w.Code, w.Body)
	}
	if got := w.Header().Get("X-Memagg-Watermark"); got != "4" {
		t.Fatalf("watermark header %q, want 4", got)
	}
	if w.Body.Len() == 0 {
		t.Fatal("empty partial set body")
	}
	if w := do(t, srv, http.MethodPost, "/v1/partials", ""); w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST partials = %d, want 405", w.Code)
	}
}

// doRouter drives the router-mode HTTP server in-process.
// newTestCluster spins up n worker nodes (full aggserve servers over
// httptest) plus the router-mode server over them.
func newTestCluster(t *testing.T, n int) *routerServer {
	t.Helper()
	peers := make([]string, n)
	for i := 0; i < n; i++ {
		s := memagg.NewStream(memagg.StreamOptions{Shards: 1, SealRows: 4, Holistic: true})
		ts := httptest.NewServer(newServer(s))
		t.Cleanup(func() { ts.Close(); _ = s.Close() })
		peers[i] = ts.URL
	}
	rt, err := cluster.NewRouter(peers)
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	return newRouterServer(rt)
}

// TestRouterServerRoundTrip: the router-mode server speaks the node
// protocol end to end — sharded ingest, gathered exact queries, the
// composed watermark ETag, membership-wide readiness, and stats.
func TestRouterServerRoundTrip(t *testing.T) {
	srv := newTestCluster(t, 3)

	if w := do(t, srv, http.MethodGet, "/v1/readyz", ""); w.Code != http.StatusOK {
		t.Fatalf("readyz = %d: %s", w.Code, w.Body)
	}
	w := do(t, srv, http.MethodPost, "/v1/ingest", `{"keys":[1,2,1,3,9,9],"vals":[10,20,30,40,5,7]}`)
	if w.Code != http.StatusOK {
		t.Fatalf("ingest = %d: %s", w.Code, w.Body)
	}
	if w := do(t, srv, http.MethodPost, "/v1/flush", ""); w.Code != http.StatusOK {
		t.Fatalf("flush = %d: %s", w.Code, w.Body)
	}

	w = do(t, srv, http.MethodGet, "/v1/query?q=q1", "")
	if w.Code != http.StatusOK {
		t.Fatalf("query q1 = %d: %s", w.Code, w.Body)
	}
	var resp struct {
		Watermark []uint64 `json:"watermark"`
		Rows      uint64   `json:"rows"`
		Result    []struct {
			Key   uint64 `json:"Key"`
			Count uint64 `json:"Count"`
		} `json:"result"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("q1 response: %v", err)
	}
	if resp.Rows != 6 || len(resp.Watermark) != 3 {
		t.Fatalf("rows %d, watermark %v; want 6 rows over 3 peers", resp.Rows, resp.Watermark)
	}
	counts := map[uint64]uint64{}
	for _, r := range resp.Result {
		counts[r.Key] = r.Count
	}
	if counts[1] != 2 || counts[2] != 1 || counts[3] != 1 || counts[9] != 2 {
		t.Fatalf("q1 counts = %v", counts)
	}

	// Conditional gather: the composed-vector ETag round-trips to a 304.
	etag := w.Header().Get("ETag")
	if etag == "" {
		t.Fatal("query response has no ETag")
	}
	r := httptest.NewRequest(http.MethodGet, "/v1/query?q=q1", nil)
	r.Header.Set("If-None-Match", etag)
	w2 := httptest.NewRecorder()
	srv.ServeHTTP(w2, r)
	if w2.Code != http.StatusNotModified {
		t.Fatalf("conditional query = %d, want 304", w2.Code)
	}

	// Holistic query through the cluster.
	if w := do(t, srv, http.MethodGet, "/v1/query?q=q3", ""); w.Code != http.StatusOK {
		t.Fatalf("query q3 = %d: %s", w.Code, w.Body)
	}

	// Stats name every peer.
	w = do(t, srv, http.MethodGet, "/v1/cluster/stats", "")
	if w.Code != http.StatusOK {
		t.Fatalf("cluster/stats = %d: %s", w.Code, w.Body)
	}
	var stats struct {
		Peers []struct {
			Peer    string `json:"peer"`
			Breaker string `json:"breaker"`
		} `json:"peers"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &stats); err != nil {
		t.Fatalf("stats response: %v", err)
	}
	if len(stats.Peers) != 3 {
		t.Fatalf("stats over %d peers, want 3", len(stats.Peers))
	}
	for _, p := range stats.Peers {
		if p.Breaker != "closed" {
			t.Fatalf("peer %s breaker %q, want closed", p.Peer, p.Breaker)
		}
	}
}

// TestQuantileNaNRejected: p=NaN parses as a float but is no quantile. It
// used to reach the kernel, index out of range inside the query goroutine
// and take the process down; the one agg.Query.Validate gate now answers
// 400 on the query path and ErrBadView at view registration, and the
// server keeps serving.
func TestQuantileNaNRejected(t *testing.T) {
	srv, s := newTestServer(t)
	if w := do(t, srv, http.MethodPost, "/v1/ingest", `{"keys":[1,2,1,3],"vals":[10,20,30,40]}`); w.Code != http.StatusOK {
		t.Fatalf("ingest = %d: %s", w.Code, w.Body)
	}
	if w := do(t, srv, http.MethodPost, "/v1/flush", ""); w.Code != http.StatusOK {
		t.Fatalf("flush = %d: %s", w.Code, w.Body)
	}
	for _, p := range []string{"NaN", "nan", "+Inf", "1.5", "-0.1"} {
		if w := do(t, srv, http.MethodGet, "/v1/query?q=quantile&p="+p, ""); w.Code != http.StatusBadRequest {
			t.Errorf("quantile p=%s = %d want 400 (%s)", p, w.Code, w.Body)
		}
	}
	if w := do(t, srv, http.MethodGet, "/v1/healthz", ""); w.Code != http.StatusOK {
		t.Fatalf("healthz after p=NaN = %d want 200", w.Code)
	}
	if w := do(t, srv, http.MethodGet, "/v1/query?q=quantile&p=0.5", ""); w.Code != http.StatusOK {
		t.Fatalf("quantile p=0.5 = %d: %s", w.Code, w.Body)
	}
	err := s.RegisterView(memagg.ViewSpec{Name: "nan", Query: "quantile", P: math.NaN(), PaneRows: 4, Panes: 2})
	if !errors.Is(err, memagg.ErrBadView) {
		t.Fatalf("RegisterView(quantile, p=NaN) = %v want ErrBadView", err)
	}
}

// TestRouterValidatesBeforeGather: the router parses and validates the
// query before scattering, so a malformed request is the client's 400
// even with every peer dead — and costs no /partials transfer — while a
// well-formed one reports the outage.
func TestRouterValidatesBeforeGather(t *testing.T) {
	peers := make([]string, 2)
	for i := range peers {
		ts := httptest.NewServer(http.NotFoundHandler())
		peers[i] = ts.URL
		ts.Close() // killed before the first request
	}
	rt, err := cluster.NewRouter(peers)
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	srv := newRouterServer(rt)
	for _, target := range []string{"/v1/query?q=nope", "/v1/query?q=q7", "/v1/query?q=q7&lo=1", "/v1/query?q=quantile&p=NaN", "/v1/query"} {
		if w := do(t, srv, http.MethodGet, target, ""); w.Code != http.StatusBadRequest {
			t.Errorf("GET %s = %d want 400 (%s)", target, w.Code, w.Body)
		}
	}
	for _, st := range rt.Stats() {
		if st.Requests != 0 {
			t.Errorf("peer %s saw %d requests for malformed queries, want 0", st.Peer, st.Requests)
		}
	}
	if w := do(t, srv, http.MethodGet, "/v1/query?q=q1", ""); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("q1 with every peer down = %d want 503 (%s)", w.Code, w.Body)
	}
}

// spaces is an endless reader of JSON whitespace.
type spaces struct{}

func (spaces) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	return len(p), nil
}

// oversized returns a body of maxJSONBody+1 bytes: whitespace, then
// payload. Without the cap it is valid JSON the handler would accept.
func oversized(payload string) io.Reader {
	pad := int64(maxJSONBody + 1 - len(payload))
	return io.MultiReader(io.LimitReader(spaces{}, pad), strings.NewReader(payload))
}

// TestJSONBodyTooLarge: a JSON body one byte over the cap answers 413 in
// the error envelope, on the node's and the router's /v1/ingest and on
// POST /v1/views, before anything is applied — and the server keeps
// serving. Without the cap each body decoded whole.
func TestJSONBodyTooLarge(t *testing.T) {
	node, s := newTestServer(t)
	router := newTestCluster(t, 2)
	rows := func() int { return int(s.Stats().Ingested + router.rt.IngestRows()) }
	views := func() int { return len(s.Views()) }
	for _, c := range []struct {
		name, target, payload string
		h                     http.Handler
		applied               func() int
	}{
		{"node ingest", "/v1/ingest", `{"keys":[1],"vals":[1]}`, node, rows},
		{"router ingest", "/v1/ingest", `{"keys":[1],"vals":[1]}`, router, rows},
		{"node views", "/v1/views", `{"name":"big","query":"q1","pane_rows":4,"panes":2}`, node, views},
	} {
		w := httptest.NewRecorder()
		c.h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, c.target, oversized(c.payload)))
		if w.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s: %d-byte body = %d want 413 (%s)", c.name, maxJSONBody+1, w.Code, w.Body)
		}
		var env struct {
			Error string `json:"error"`
			Code  int    `json:"code"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil || env.Code != http.StatusRequestEntityTooLarge || env.Error == "" {
			t.Fatalf("%s: error envelope = %s (%v)", c.name, w.Body, err)
		}
		if n := c.applied(); n != 0 {
			t.Fatalf("%s: oversized body applied %d rows/views, want 0", c.name, n)
		}
		if w := do(t, c.h, http.MethodGet, "/v1/healthz", ""); w.Code != http.StatusOK {
			t.Fatalf("%s: healthz after 413 = %d want 200", c.name, w.Code)
		}
	}
}

// TestStatsKeysPinned: /v1/stats is memagg.StreamStats encoded as JSON,
// so its keys and their order are wire format that bench/ and operators
// parse; this pins them.
func TestStatsKeysPinned(t *testing.T) {
	srv, _ := newTestServer(t)
	dec := json.NewDecoder(strings.NewReader(do(t, srv, http.MethodGet, "/v1/stats", "").Body.String()))
	var keys []string
	if _, err := dec.Token(); err != nil { // {
		t.Fatal(err)
	}
	for dec.More() {
		k, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, k.(string))
		var v json.RawMessage
		if err := dec.Decode(&v); err != nil {
			t.Fatal(err)
		}
	}
	want := []string{
		"Shards", "Holistic", "Ingested", "Watermark", "Staleness",
		"Batches", "Seals", "Snapshots", "BlockedNanos",
		"SealedPending", "Generation", "Groups",
		"Merges", "MergeTotalNanos", "MergeLastNanos",
		"QueryCacheHits", "QueryCacheMisses", "QueryCacheEvictions",
		"Views", "ViewPanesLive", "ViewPanesEvicted", "ViewUpdates", "ViewReads", "ViewReadsCached",
		"Durable", "ReadOnly", "WALAppends", "WALFsyncs", "WALSegmentRotations", "WALSizeBytes",
		"Checkpoints", "CheckpointWatermark",
	}
	if !reflect.DeepEqual(keys, want) {
		t.Fatalf("/v1/stats keys =\n%v\nwant\n%v", keys, want)
	}
}
