package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"mime"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"memagg"
	"memagg/internal/agg"
	"memagg/internal/obs"
	"memagg/internal/wal"
)

// statusClientClosedRequest reports a request whose client disconnected
// before the response was ready (the nginx convention; Go's standard
// status list stops at 511).
const statusClientClosedRequest = 499

// server wires one memagg.Stream to the HTTP API. /v1/metrics serves the
// process-global registry (engine phases, arena accounting), the stream's
// own (ingest, seal, merge, snapshot instruments) and the API's per-route
// request families (see newAPIMux).
type server struct {
	stream *memagg.Stream
	*http.ServeMux
}

func newServer(s *memagg.Stream) *server {
	srv := &server{stream: s}
	srv.ServeMux = newAPIMux([]route{
		{"/ingest", srv.handleIngest},
		{"/flush", srv.handleFlush},
		{"/query", srv.handleQuery},
		{"/stats", srv.handleStats},
		{"/partials", srv.handlePartials},
		{"/views", srv.handleViews},
		{"/views/", srv.handleViewItem},
		{"/healthz", srv.handleHealthz},
		{"/readyz", srv.handleReadyz},
	}, obs.Default, s.MetricsRegistry())
	return srv
}

// statusWriter captures the status code a handler writes (200 when the
// handler never calls WriteHeader explicitly).
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// route is one API endpoint: its unversioned path, which is also its
// metric label, and its handler.
type route struct {
	path string
	h    http.HandlerFunc
}

// newAPIMux mounts every route at /v1<route> behind the metrics
// middleware — per-route request counters by status code and latency
// histograms — and serves /v1/metrics over regs plus those two families.
// The route label omits the /v1 prefix, so dashboards keyed on
// {route="/ingest"} read the same series.
func newAPIMux(routes []route, regs ...*obs.Registry) *http.ServeMux {
	reg := obs.NewRegistry()
	requests := reg.NewCounterVec("memagg_http_requests_total",
		"HTTP requests served, by route and status code.", "route", "code")
	latency := reg.NewHistogramVec("memagg_http_request_seconds",
		"HTTP request latency, by route.", "route")
	mux := http.NewServeMux()
	for _, rt := range routes {
		lat := latency.With(rt.path)
		mux.HandleFunc("/v1"+rt.path, func(w http.ResponseWriter, r *http.Request) {
			mk := obs.Start()
			sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
			rt.h(sw, r)
			mk.Tick(lat)
			requests.With(rt.path, strconv.Itoa(sw.status)).Inc()
		})
	}
	mux.Handle("/v1/metrics", obs.Handler(append(regs, reg)...))
	return mux
}

func (srv *server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	if isChunkRequest(r) {
		// Binary chunk stream: decode each wire chunk and transfer its
		// freshly allocated columns straight into the stream — the only
		// copy between socket and delta table is the wire decode itself.
		rows, err := ingestChunks(r.Body, srv.stream.AppendOwnedChunk)
		if err != nil {
			status, msg := chunkStatus(err)
			httpError(w, status, msg)
			return
		}
		writeJSON(w, map[string]any{"appended": rows, "ingested": srv.stream.Stats().Ingested})
		return
	}
	c, ok := readIngestJSON(w, r)
	if !ok {
		return
	}
	// The decoder allocated the columns for this request alone, so they
	// transfer to the stream without the AppendChunk copy.
	if err := srv.stream.AppendOwnedChunk(c); err != nil {
		httpError(w, ingestStatus(err), err.Error())
		return
	}
	writeJSON(w, map[string]any{"appended": c.Rows(), "ingested": srv.stream.Stats().Ingested})
}

// maxJSONBody caps every JSON request body, so one hostile request cannot
// exhaust memory: 64 MiB, the largest frame the WAL accepts.
const maxJSONBody = wal.MaxFrame

// decodeJSON decodes r's JSON body into v, reading at most maxJSONBody
// bytes. On failure it writes the error response — 413 for an oversized
// body, 400 for malformed JSON — and returns false.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxJSONBody)).Decode(v)
	if err == nil {
		return true
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		httpError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("body exceeds %d bytes", tooBig.Limit))
		return false
	}
	httpError(w, http.StatusBadRequest, "bad JSON: "+err.Error())
	return false
}

// readIngestJSON decodes a JSON ingest body — {"keys":[...],"vals":[...]}
// — into a chunk: the one JSON ingest spelling node and router share. On
// failure it writes the error response and returns false.
func readIngestJSON(w http.ResponseWriter, r *http.Request) (memagg.Chunk, bool) {
	var req struct {
		Keys []uint64 `json:"keys"`
		Vals []uint64 `json:"vals"`
	}
	if !decodeJSON(w, r, &req) {
		return memagg.Chunk{}, false
	}
	if len(req.Vals) > len(req.Keys) {
		httpError(w, http.StatusBadRequest, "more vals than keys")
		return memagg.Chunk{}, false
	}
	return memagg.Chunk{Keys: req.Keys, Vals: req.Vals}, true
}

// isChunkRequest reports whether the request negotiated the binary chunk
// content type (parameters ignored). Anything else takes the JSON path.
func isChunkRequest(r *http.Request) bool {
	mt, _, err := mime.ParseMediaType(r.Header.Get("Content-Type"))
	return err == nil && mt == memagg.ChunkContentType
}

// ingestChunks drains one binary chunk-stream body into sink (column
// ownership transfers with each chunk) and returns the rows appended.
// Chunks handed off before an error stay applied — per-chunk atomicity,
// the binary analog of the JSON path's per-request batch.
func ingestChunks(body io.Reader, sink func(memagg.Chunk) error) (int, error) {
	br := bufio.NewReaderSize(body, 64<<10)
	rows := 0
	for {
		c, err := memagg.ReadChunk(br)
		if err == io.EOF {
			return rows, nil
		}
		if err != nil {
			return rows, err
		}
		n := c.Rows()
		if err := sink(c); err != nil {
			return rows, err
		}
		rows += n
	}
}

// chunkStatus splits a chunk-ingest failure into its HTTP status:
// wire-grade errors (malformed chunk, torn frame) are the client's 400,
// stream refusals map through ingestStatus.
func chunkStatus(err error) (int, string) {
	if errors.Is(err, memagg.ErrChunkWire) || errors.Is(err, memagg.ErrWALCorrupt) {
		return http.StatusBadRequest, "bad chunk body: " + err.Error()
	}
	return ingestStatus(err), err.Error()
}

// ingestStatus maps an AppendChunk/Flush error to its HTTP status: 503
// for the expected refusals — the stream is draining during shutdown
// (ErrClosed) or has degraded to read-only after a durability fault
// (ErrDurability) — and 500 for anything else. The explicit errors.Is
// mapping keeps a future unexpected error from masquerading as routine
// unavailability.
func ingestStatus(err error) int {
	if errors.Is(err, memagg.ErrClosed) || errors.Is(err, memagg.ErrDurability) {
		return http.StatusServiceUnavailable
	}
	return http.StatusInternalServerError
}

func (srv *server) handleFlush(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	if err := srv.stream.Flush(); err != nil {
		httpError(w, ingestStatus(err), err.Error())
		return
	}
	writeJSON(w, map[string]any{"watermark": srv.stream.Stats().Watermark})
}

func (srv *server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, srv.stream.Stats())
}

// handlePartials serves this node's full partial-aggregate set in the
// cluster wire format — the worker half of the router's scatter-gather.
// The body is framed and CRC-checked end to end (internal/wal frames), so
// the router detects torn responses; the watermark header names the
// snapshot served.
func (srv *server) handlePartials(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	sn := srv.stream.Snapshot()
	buf, err := sn.EncodePartials(nil)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Memagg-Watermark", strconv.FormatUint(sn.Watermark(), 10))
	if _, err := w.Write(buf); err != nil {
		log.Printf("aggserve: partials write: %v", err)
	}
}

// handleHealthz is the liveness probe: the process is up and the mux is
// serving. It deliberately checks nothing else — a read-only or closed
// stream is still alive and still answers queries, and restarting it
// would not help.
func (srv *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, map[string]any{"ok": true})
}

// handleReadyz is the readiness probe: the stream accepts writes — open,
// recovery complete (OpenStream returns only after replay), and not
// degraded to read-only by a durability fault. The cluster router gates
// membership on this, so a degraded node stops receiving sharded ingest
// without being killed.
func (srv *server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if !srv.stream.Ready() {
		reason := "stream closed"
		if srv.stream.ReadOnly() {
			reason = "durability degraded, read-only"
		}
		httpError(w, http.StatusServiceUnavailable, reason)
		return
	}
	writeJSON(w, map[string]any{"ready": true, "watermark": srv.stream.Stats().Watermark})
}

// queryResponse tags every result with the snapshot watermark it is
// consistent with.
type queryResponse struct {
	Query     string `json:"query"`
	Watermark uint64 `json:"watermark"`
	Result    any    `json:"result"`
}

// outcome is one finished snapshot query, handed back from the goroutine
// that ran it.
type outcome struct {
	result any
	err    error
}

func (srv *server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	params := r.URL.Query()
	name := params.Get("q")
	q, err := parseQuery(params)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	// An already-cancelled request answers 499 before any query work:
	// once the query runs, a fast finish makes both select cases below
	// ready, and select picks between them at random.
	if err := r.Context().Err(); err != nil {
		httpError(w, statusClientClosedRequest, "request canceled: "+err.Error())
		return
	}
	sn := srv.stream.Snapshot()
	// A query result is fully determined by the snapshot watermark (per
	// URL, which carries the query id and parameters), so the watermark is
	// the entity tag. A client that cached the body at this watermark gets
	// a 304 before any query work runs — the cheapest cache hit there is.
	etag := `"` + strconv.FormatUint(sn.Watermark(), 10) + `"`
	if match := r.Header.Get("If-None-Match"); etagMatches(match, etag) {
		w.Header().Set("ETag", etag)
		w.WriteHeader(http.StatusNotModified)
		return
	}
	done := make(chan outcome, 1)
	go func() {
		result, err := sn.Run(q)
		done <- outcome{result, err}
	}()
	select {
	case <-r.Context().Done():
		// The client went away or the server is draining: stop waiting.
		// The snapshot query finishes in the background and is discarded —
		// snapshots are read-only, so there is nothing to undo.
		httpError(w, statusClientClosedRequest, "request canceled: "+r.Context().Err().Error())
	case o := <-done:
		if o.err != nil {
			httpError(w, queryStatus(o.err), o.err.Error())
			return
		}
		w.Header().Set("ETag", etag)
		writeJSON(w, queryResponse{Query: name, Watermark: sn.Watermark(), Result: o.result})
	}
}

// etagMatches reports whether an If-None-Match header value matches the
// given entity tag: "*" matches anything, and the comma-separated list is
// compared tag by tag. Weak validators (W/ prefix) compare by opaque tag —
// the weak comparison RFC 9110 prescribes for If-None-Match.
func etagMatches(header, etag string) bool {
	if header == "" {
		return false
	}
	if header == "*" {
		return true
	}
	for _, tag := range strings.Split(header, ",") {
		tag = strings.TrimSpace(tag)
		tag = strings.TrimPrefix(tag, "W/")
		if tag == etag {
			return true
		}
	}
	return false
}

// parseQuery resolves the /v1/query parameters into a validated agg.Query:
// the one parse-then-validate step node and router share, run before any
// snapshot or gather work. agg.ParseQuery owns the vocabulary; this only
// knows which URL parameters each query family reads. Every error is the
// client's (400).
func parseQuery(params url.Values) (agg.Query, error) {
	name := params.Get("q")
	if name == "" {
		return agg.Query{}, errors.New("missing q parameter")
	}
	q, err := agg.ParseQuery(name, 0, 0, 0)
	if err != nil {
		return q, err
	}
	switch q.ID {
	case agg.QRange:
		if q.Lo, err = queryUint(params, "lo"); err != nil {
			return q, err
		}
		if q.Hi, err = queryUint(params, "hi"); err != nil {
			return q, err
		}
	case agg.QQuantile:
		if q.P, err = strconv.ParseFloat(params.Get("p"), 64); err != nil {
			return q, errors.New("quantile needs p=0..1")
		}
	}
	return q, q.Validate()
}

// queryStatus maps a failed Run — a snapshot's or a cluster gather's — to
// its HTTP status: 422 for a holistic query the state cannot answer, 500
// for anything else.
func queryStatus(err error) int {
	if errors.Is(err, memagg.ErrUnsupportedQuery) {
		return http.StatusUnprocessableEntity
	}
	return http.StatusInternalServerError
}

func queryUint(params url.Values, name string) (uint64, error) {
	v := params.Get(name)
	if v == "" {
		return 0, fmt.Errorf("range needs %s=", name)
	}
	return strconv.ParseUint(v, 10, 64)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("aggserve: encode: %v", err)
	}
}

// httpError writes the API's error envelope: {"error": ..., "code": ...},
// code echoing the HTTP status. Every failure on both the single-node and
// router surfaces uses this one shape (clusterError adds detail fields to
// the same envelope).
func httpError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]any{"error": msg, "code": status})
}
