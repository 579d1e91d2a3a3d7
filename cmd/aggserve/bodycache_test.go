package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"memagg"
	"memagg/internal/cluster"
)

func ingestFlush(t *testing.T, srv http.Handler, body string) {
	t.Helper()
	if w := do(t, srv, http.MethodPost, "/v1/ingest", body); w.Code != http.StatusOK {
		t.Fatalf("ingest = %d: %s", w.Code, w.Body)
	}
	if w := do(t, srv, http.MethodPost, "/v1/flush", ""); w.Code != http.StatusOK {
		t.Fatalf("flush = %d: %s", w.Code, w.Body)
	}
}

// TestBodyCacheFollowsETag: a repeated GET at an unchanged tag is a cache
// hit with the same bytes and an explicit Content-Length, and a body
// never outlives its tag — after ingest and flush the same URL answers the
// new watermark's body. The counters and the live-bytes gauge on
// /v1/metrics follow.
func TestBodyCacheFollowsETag(t *testing.T) {
	srv, _ := newTestServer(t)
	if w := do(t, srv, http.MethodPost, "/v1/views", `{"name":"v","query":"q1","pane_rows":8,"panes":2}`); w.Code != http.StatusCreated {
		t.Fatalf("register = %d: %s", w.Code, w.Body)
	}
	ingestFlush(t, srv, `{"keys":[1,2,1,3],"vals":[10,20,30,40]}`)

	for _, url := range []string{"/v1/query?q=q1", "/v1/views/v/result"} {
		first := do(t, srv, http.MethodGet, url, "")
		second := do(t, srv, http.MethodGet, url, "")
		if first.Code != http.StatusOK || second.Code != http.StatusOK {
			t.Fatalf("GET %s = %d, %d", url, first.Code, second.Code)
		}
		if !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) || first.Header().Get("ETag") != second.Header().Get("ETag") {
			t.Fatalf("GET %s twice at one tag: %q then %q", url, first.Body, second.Body)
		}
		if got, want := second.Header().Get("Content-Length"), fmt.Sprint(second.Body.Len()); got != want {
			t.Fatalf("GET %s Content-Length = %q, want %q", url, got, want)
		}
	}
	if hits, misses := srv.bodies.hits.Value(), srv.bodies.misses.Value(); hits != 2 || misses != 2 {
		t.Fatalf("body cache hits %d misses %d, want 2 and 2", hits, misses)
	}

	ingestFlush(t, srv, `{"keys":[9,9,9,9],"vals":[1,2,3,4]}`)
	var q struct {
		Watermark uint64            `json:"watermark"`
		Result    []json.RawMessage `json:"result"`
	}
	w := do(t, srv, http.MethodGet, "/v1/query?q=q1", "")
	if err := json.Unmarshal(w.Body.Bytes(), &q); err != nil {
		t.Fatal(err)
	}
	if q.Watermark != 8 || len(q.Result) != 4 || w.Header().Get("ETag") != `"8"` {
		t.Fatalf("q1 after the second flush = watermark %d, %d groups, ETag %s; want 8, 4, \"8\"",
			q.Watermark, len(q.Result), w.Header().Get("ETag"))
	}
	var v struct {
		WindowEnd uint64 `json:"window_end"`
		Rows      uint64 `json:"rows"`
	}
	if err := json.Unmarshal(do(t, srv, http.MethodGet, "/v1/views/v/result", "").Body.Bytes(), &v); err != nil {
		t.Fatal(err)
	}
	if v.WindowEnd != 8 || v.Rows != 8 {
		t.Fatalf("view after the second flush = window end %d, %d rows; want 8, 8", v.WindowEnd, v.Rows)
	}

	// One entry per URI: the new watermark's bodies replaced the old ones.
	if n := len(srv.bodies.m); n != 2 {
		t.Fatalf("body cache holds %d entries after two watermarks, want 2 (one per URI)", n)
	}
	metrics := do(t, srv, http.MethodGet, "/v1/metrics", "").Body.String()
	for _, want := range []string{
		"memagg_http_body_cache_hits_total 2",
		"memagg_http_body_cache_misses_total 4",
		fmt.Sprintf("memagg_http_body_cache_bytes %d", srv.bodies.bytes),
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/v1/metrics missing %q", want)
		}
	}
}

// TestBodyCacheBounds: many distinct q7 ranges keep the cache within its
// entry and byte bounds, evicting oldest first, and a body over the byte
// cap is never stored.
func TestBodyCacheBounds(t *testing.T) {
	srv, _ := newTestServer(t)
	ingestFlush(t, srv, `{"keys":[1,2,3,4,5,6,7,8],"vals":[1,2,3,4,5,6,7,8]}`)
	const n = 3 * bodyCacheEntries
	for i := 0; i < n; i++ {
		if w := do(t, srv, http.MethodGet, fmt.Sprintf("/v1/query?q=q7&lo=%d&hi=%d", i%8, i), ""); w.Code != http.StatusOK {
			t.Fatalf("q7 #%d = %d: %s", i, w.Code, w.Body)
		}
	}
	c := srv.bodies
	live := 0
	for _, e := range c.m {
		live += len(e.body)
	}
	if len(c.m) != bodyCacheEntries || len(c.order) != bodyCacheEntries || live != c.bytes || c.bytes > bodyCacheBytes {
		t.Fatalf("cache holds %d entries (%d in order) and %d bytes (%d counted); want %d entries within %d bytes",
			len(c.m), len(c.order), live, c.bytes, bodyCacheEntries, bodyCacheBytes)
	}
	if c.live.Value() != int64(c.bytes) {
		t.Fatalf("live-bytes gauge %d, cache holds %d", c.live.Value(), c.bytes)
	}
	oldest := fmt.Sprintf("/v1/query?q=q7&lo=%d&hi=%d", (n-bodyCacheEntries)%8, n-bodyCacheEntries)
	if c.order[0] != oldest {
		t.Fatalf("oldest entry %s, want %s (FIFO)", c.order[0], oldest)
	}

	// Byte bound: a body exactly at the cap evicts everything else, a
	// new tag for the same URI replaces it, and one byte over the cap is
	// not stored at all.
	c.put("/full", `"1"`, make([]byte, bodyCacheBytes))
	if len(c.m) != 1 || c.bytes != bodyCacheBytes {
		t.Fatalf("after a cap-sized body: %d entries, %d bytes; want 1, %d", len(c.m), c.bytes, bodyCacheBytes)
	}
	c.put("/full", `"2"`, make([]byte, 10))
	if _, ok := c.get("/full", `"1"`); ok || len(c.m) != 1 || len(c.order) != 1 || c.bytes != 10 {
		t.Fatalf("after a new tag for the URI: %d entries (%d in order), %d bytes; want 1, 1, 10", len(c.m), len(c.order), c.bytes)
	}
	c.put("/over", `"1"`, make([]byte, bodyCacheBytes+1))
	if _, ok := c.m["/over"]; ok || len(c.m) != 1 {
		t.Fatalf("an oversized body was stored (%d entries)", len(c.m))
	}
}

// TestBodyCacheConcurrentGets: identical GETs racing each other and a
// moving watermark always pair one tag with one body, on node queries and
// view results (cached) and router queries (encoded per request).
func TestBodyCacheConcurrentGets(t *testing.T) {
	srv, _ := newTestServer(t)
	if w := do(t, srv, http.MethodPost, "/v1/views", `{"name":"v","query":"q2","pane_rows":8,"panes":4,"sliding":true}`); w.Code != http.StatusCreated {
		t.Fatalf("register = %d: %s", w.Code, w.Body)
	}
	router := newTestCluster(t, 3)
	for _, h := range []http.Handler{srv, router} {
		ingestFlush(t, h, `{"keys":[1,2,1,3],"vals":[10,20,30,40]}`)
	}
	targets := []struct {
		h   http.Handler
		url string
	}{{srv, "/v1/query?q=q2"}, {srv, "/v1/views/v/result"}, {router, "/v1/query?q=sum"}}

	var (
		mu     sync.Mutex
		byETag = map[string]string{}
		wg     sync.WaitGroup
	)
	get := func(h http.Handler, url string) {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, url, nil))
			if w.Code != http.StatusOK {
				t.Errorf("GET %s = %d: %s", url, w.Code, w.Body)
				return
			}
			key := url + " " + w.Header().Get("ETag")
			mu.Lock()
			if prev, ok := byETag[key]; ok && prev != w.Body.String() {
				t.Errorf("GET %s: one tag, two bodies:\n%s\n%s", key, prev, w.Body)
			}
			byETag[key] = w.Body.String()
			mu.Unlock()
		}
	}
	for _, tg := range targets {
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go get(tg.h, tg.url)
		}
	}
	for i := 0; i < 5; i++ {
		for _, h := range []http.Handler{srv, router} {
			ingestFlush(t, h, fmt.Sprintf(`{"keys":[%d,7],"vals":[%d,1]}`, i, i))
		}
	}
	wg.Wait()
}

// TestBodyCacheCountersRegistered: a node's API registry serves the
// body-cache families even before any lookup; a router, which keeps no
// body cache, serves none of them.
func TestBodyCacheCountersRegistered(t *testing.T) {
	srv, _ := newTestServer(t)
	families := []string{
		"# TYPE memagg_http_body_cache_hits_total counter",
		"# TYPE memagg_http_body_cache_misses_total counter",
		"# TYPE memagg_http_body_cache_bytes gauge",
	}
	body := do(t, srv, http.MethodGet, "/v1/metrics", "").Body.String()
	for _, want := range families {
		if !strings.Contains(body, want) {
			t.Errorf("node /v1/metrics missing %q", want)
		}
	}
	if body := do(t, newTestCluster(t, 1), http.MethodGet, "/v1/metrics", "").Body.String(); strings.Contains(body, "body_cache") {
		t.Errorf("router /v1/metrics serves body-cache families")
	}
}

// TestRouterPeerRestartSameVector: a volatile peer that restarts and takes
// new rows up to its old watermark brings the cluster back to the same
// vector with different data. The router must answer the new rows, not a
// body from before the restart, and the peer's new incarnation must move
// the ETag, so a client holding the pre-restart tag gets the new body
// instead of a 304.
func TestRouterPeerRestartSameVector(t *testing.T) {
	var peer atomic.Pointer[server]
	restart := func() {
		s := memagg.NewStream(memagg.StreamOptions{Shards: 1, SealRows: 4})
		t.Cleanup(func() { _ = s.Close() })
		peer.Store(newServer(s))
	}
	restart()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		peer.Load().ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	rt, err := cluster.NewRouter([]string{ts.URL})
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	router := newRouterServer(rt)

	type q1Body struct {
		Watermark []uint64 `json:"watermark"`
		Result    []struct {
			Key uint64 `json:"key"`
		} `json:"result"`
	}
	decode := func(w *httptest.ResponseRecorder) q1Body {
		t.Helper()
		var b q1Body
		if err := json.Unmarshal(w.Body.Bytes(), &b); err != nil {
			t.Fatalf("decode %q: %v", w.Body, err)
		}
		return b
	}
	wantNewRows := func(w *httptest.ResponseRecorder, what string) {
		t.Helper()
		if w.Code != http.StatusOK {
			t.Fatalf("%s = %d, want 200", what, w.Code)
		}
		if r := decode(w).Result; len(r) != 2 || r[0].Key != 3 || r[1].Key != 4 {
			t.Fatalf("%s = %s, want keys 3 and 4", what, w.Body)
		}
	}

	ingestFlush(t, router, `{"keys":[1,2],"vals":[10,20]}`)
	before := do(t, router, http.MethodGet, "/v1/query?q=q1", "")
	restart()
	ingestFlush(t, router, `{"keys":[3,4],"vals":[30,40]}`)
	after := do(t, router, http.MethodGet, "/v1/query?q=q1", "")
	if before.Code != http.StatusOK || after.Code != http.StatusOK {
		t.Fatalf("GET q1 = %d, %d", before.Code, after.Code)
	}
	if b, a := decode(before).Watermark, decode(after).Watermark; !reflect.DeepEqual(b, a) {
		t.Fatalf("watermark vectors %v and %v differ; the test needs the restarted peer back at the same watermark", b, a)
	}
	wantNewRows(after, "q1 after the peer restart")

	oldTag := before.Header().Get("ETag")
	if oldTag == after.Header().Get("ETag") {
		t.Fatalf("ETag %s unchanged across the peer restart", oldTag)
	}
	r := httptest.NewRequest(http.MethodGet, "/v1/query?q=q1", nil)
	r.Header.Set("If-None-Match", oldTag)
	revalidate := httptest.NewRecorder()
	router.ServeHTTP(revalidate, r)
	wantNewRows(revalidate, "revalidation with the pre-restart tag")
}
