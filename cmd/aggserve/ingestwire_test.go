package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"memagg"
	"memagg/internal/cluster"
	"memagg/internal/dataset"
	"memagg/internal/pairtest"
)

// wireBatch is one ingest batch in both spellings: a JSON body and the
// equivalent binary chunk-stream body carrying the same rows in one
// chunk, so the two feeding paths see identical batch boundaries (which
// is what makes single-node snapshot state — and therefore the raw query
// response bytes — reproducible between them).
type wireBatch struct {
	keys, vals []uint64
}

func (b wireBatch) jsonBody() string {
	body, err := json.Marshal(map[string][]uint64{"keys": b.keys, "vals": b.vals})
	if err != nil {
		panic(err)
	}
	return string(body)
}

func (b wireBatch) chunkBody() []byte {
	return memagg.AppendChunkWire(nil, memagg.Chunk{Keys: b.keys, Vals: b.vals})
}

// equivBatches builds a deterministic batch sequence with repeated keys,
// value variety, and one short-vals batch (zero-extension on both paths).
func equivBatches() []wireBatch {
	batches := make([]wireBatch, 24)
	for bi := range batches {
		rows := 40 + bi%17
		b := wireBatch{keys: make([]uint64, rows), vals: make([]uint64, rows)}
		for i := 0; i < rows; i++ {
			b.keys[i] = uint64((bi*31 + i*7) % 53)
			b.vals[i] = uint64(bi*1000 + i)
		}
		if bi == 5 {
			b.vals = b.vals[:rows/2] // short vals zero-extend
		}
		batches[bi] = b
	}
	return batches
}

func doChunk(t *testing.T, h http.Handler, target string, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	r := httptest.NewRequest(http.MethodPost, target, bytes.NewReader(body))
	r.Header.Set("Content-Type", memagg.ChunkContentType)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	return w
}

// equivQueries is the full query surface both gates compare: Q1–Q7 plus
// the non-canonical reductions.
var equivQueries = []string{
	"q1", "q2", "q3", "q4", "q5", "q6", "q7&lo=0&hi=18446744073709551615",
	"sum", "min", "max", "quantile&p=0.9", "mode",
}

// TestIngestEquivalenceJSONBinary is the content-negotiation gate: the
// same batches fed once as JSON and once as binary chunks must produce
// bit-identical responses — same ETag, same body bytes — for every query
// in the set. Shards=1 + DisableMerger + MergeNow make the snapshot
// state construction deterministic, so any divergence is a wire bug,
// not noise.
func TestIngestEquivalenceJSONBinary(t *testing.T) {
	open := func() (*server, *memagg.Stream) {
		s := memagg.NewStream(memagg.StreamOptions{
			Shards: 1, SealRows: 64, Holistic: true, DisableMerger: true,
		})
		t.Cleanup(func() { _ = s.Close() })
		return newServer(s), s
	}
	jsonSrv, jsonStream := open()
	binSrv, binStream := open()

	for _, b := range equivBatches() {
		if w := do(t, jsonSrv, http.MethodPost, "/v1/ingest", b.jsonBody()); w.Code != http.StatusOK {
			t.Fatalf("json ingest = %d: %s", w.Code, w.Body)
		}
		if w := doChunk(t, binSrv, "/v1/ingest", b.chunkBody()); w.Code != http.StatusOK {
			t.Fatalf("binary ingest = %d: %s", w.Code, w.Body)
		}
	}
	for _, srv := range []*server{jsonSrv, binSrv} {
		if w := do(t, srv, http.MethodPost, "/v1/flush", ""); w.Code != http.StatusOK {
			t.Fatalf("flush = %d: %s", w.Code, w.Body)
		}
	}
	jsonStream.MergeNow()
	binStream.MergeNow()

	for _, q := range equivQueries {
		wj := do(t, jsonSrv, http.MethodGet, "/v1/query?q="+q, "")
		wb := do(t, binSrv, http.MethodGet, "/v1/query?q="+q, "")
		if wj.Code != http.StatusOK || wb.Code != http.StatusOK {
			t.Fatalf("q=%s: json %d, binary %d (%s | %s)", q, wj.Code, wb.Code, wj.Body, wb.Body)
		}
		if et1, et2 := wj.Header().Get("ETag"), wb.Header().Get("ETag"); et1 != et2 {
			t.Fatalf("q=%s: ETag %q (json) != %q (binary)", q, et1, et2)
		}
		if !bytes.Equal(wj.Body.Bytes(), wb.Body.Bytes()) {
			t.Fatalf("q=%s responses differ:\njson:   %s\nbinary: %s", q, wj.Body, wb.Body)
		}
	}
}

// TestIngestBinaryMultiChunkBody checks the streaming body shape: several
// chunks back to back in one POST, all appended, trailing clean EOF.
func TestIngestBinaryMultiChunkBody(t *testing.T) {
	srv, _ := newTestServer(t)
	var body []byte
	total := 0
	for _, b := range equivBatches()[:4] {
		body = memagg.AppendChunkWire(body, memagg.Chunk{Keys: b.keys, Vals: b.vals})
		total += len(b.keys)
	}
	w := doChunk(t, srv, "/v1/ingest", body)
	if w.Code != http.StatusOK {
		t.Fatalf("multi-chunk ingest = %d: %s", w.Code, w.Body)
	}
	var resp struct {
		Appended int `json:"appended"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Appended != total {
		t.Fatalf("appended %d rows, want %d", resp.Appended, total)
	}
	if w := do(t, srv, http.MethodPost, "/v1/flush", ""); w.Code != http.StatusOK {
		t.Fatalf("flush = %d", w.Code)
	}
	w = do(t, srv, http.MethodGet, "/v1/query?q=q4", "")
	if !strings.Contains(w.Body.String(), fmt.Sprintf(`"result":%d`, total)) {
		t.Fatalf("q4 after multi-chunk ingest: %s", w.Body)
	}
}

// TestIngestBinaryRejectsCorruptBody pins the error contract: a corrupt
// chunk body answers 400 in the shared envelope, with its "code" field.
func TestIngestBinaryRejectsCorruptBody(t *testing.T) {
	srv, _ := newTestServer(t)
	good := wireBatch{keys: []uint64{1, 2, 3}, vals: []uint64{1, 2, 3}}.chunkBody()
	for name, body := range map[string][]byte{
		"truncated": good[:len(good)-3],
		"flipped":   append(append([]byte{}, good[:10]...), append([]byte{0xFF}, good[11:]...)...),
		"junk":      []byte("not a chunk stream"),
	} {
		w := doChunk(t, srv, "/v1/ingest", body)
		if w.Code != http.StatusBadRequest {
			t.Errorf("%s body = %d want 400 (%s)", name, w.Code, w.Body)
		}
		var envelope struct {
			Error string `json:"error"`
			Code  int    `json:"code"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &envelope); err != nil {
			t.Errorf("%s: error body not the envelope: %v (%s)", name, err, w.Body)
		} else if envelope.Code != http.StatusBadRequest || envelope.Error == "" {
			t.Errorf("%s: envelope = %+v", name, envelope)
		}
	}
}

// TestRoutesV1Only pins the route contract on both server modes: every
// route answers under /v1 and at no unversioned spelling, /debug/vars is
// gone, and metric route labels stay unversioned.
func TestRoutesV1Only(t *testing.T) {
	type call struct {
		method, path, body string
		want               int
	}
	get, post := http.MethodGet, http.MethodPost
	ingest := `{"keys":[1,2],"vals":[3,4]}`
	node := []call{
		{post, "/ingest", ingest, http.StatusOK},
		{post, "/flush", "", http.StatusOK},
		{get, "/query?q=q1", "", http.StatusOK},
		{get, "/stats", "", http.StatusOK},
		{get, "/partials", "", http.StatusOK},
		{post, "/views", `{"name":"v","query":"q1","pane_rows":8,"panes":1}`, http.StatusCreated},
		{get, "/views", "", http.StatusOK},
		{get, "/views/v", "", http.StatusOK},
		{get, "/views/v/result", "", http.StatusOK},
		{get, "/healthz", "", http.StatusOK},
		{get, "/readyz", "", http.StatusOK},
		{get, "/metrics", "", http.StatusOK},
	}
	router := []call{
		{post, "/ingest", ingest, http.StatusOK},
		{post, "/flush", "", http.StatusOK},
		{get, "/query?q=q1", "", http.StatusOK},
		{get, "/cluster/stats", "", http.StatusOK},
		{get, "/healthz", "", http.StatusOK},
		{get, "/readyz", "", http.StatusOK},
		{get, "/metrics", "", http.StatusOK},
	}
	srv, _ := newTestServer(t)
	for name, mode := range map[string]struct {
		h     http.Handler
		calls []call
	}{"node": {srv, node}, "router": {newTestCluster(t, 2), router}} {
		for _, c := range mode.calls {
			if w := do(t, mode.h, c.method, c.path, c.body); w.Code != http.StatusNotFound {
				t.Errorf("%s: %s %s = %d, want 404", name, c.method, c.path, w.Code)
			}
			if w := do(t, mode.h, c.method, "/v1"+c.path, c.body); w.Code != c.want {
				t.Errorf("%s: %s /v1%s = %d, want %d (%s)", name, c.method, c.path, w.Code, c.want, w.Body)
			}
		}
		for _, path := range []string{"/debug/vars", "/v1/debug/vars"} {
			if w := do(t, mode.h, get, path, ""); w.Code != http.StatusNotFound {
				t.Errorf("%s: GET %s = %d, want 404", name, path, w.Code)
			}
		}
		w := do(t, mode.h, get, "/v1/metrics", "")
		if want := `memagg_http_requests_total{route="/ingest",code="200"} 1`; !strings.Contains(w.Body.String(), want) {
			t.Errorf("%s: /v1/metrics missing %q", name, want)
		}
	}
}

// newEquivCluster builds a 3-node cluster (workers over httptest) and
// returns its router-mode server. Worker state may compact at arbitrary
// times, but cluster query results are merged from gathered partial sets
// and returned sorted by key, so responses are deterministic regardless.
func newEquivCluster(t *testing.T) *routerServer {
	t.Helper()
	peers := make([]string, 3)
	for i := range peers {
		s := memagg.NewStream(memagg.StreamOptions{Shards: 1, SealRows: 64, Holistic: true})
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

// TestClusterIngestEquivalence extends the content-negotiation gate to
// the 3-node scatter path: the same batches through a JSON-fed router
// and a binary-fed router produce bit-identical cluster query responses
// (merged results are sorted by key, so the comparison is exact).
func TestClusterIngestEquivalence(t *testing.T) {
	jsonCluster := newEquivCluster(t)
	binCluster := newEquivCluster(t)

	for _, b := range equivBatches() {
		if w := do(t, jsonCluster, http.MethodPost, "/v1/ingest", b.jsonBody()); w.Code != http.StatusOK {
			t.Fatalf("json cluster ingest = %d: %s", w.Code, w.Body)
		}
		if w := doChunk(t, binCluster, "/v1/ingest", b.chunkBody()); w.Code != http.StatusOK {
			t.Fatalf("binary cluster ingest = %d: %s", w.Code, w.Body)
		}
	}
	for _, srv := range []*routerServer{jsonCluster, binCluster} {
		if w := do(t, srv, http.MethodPost, "/v1/flush", ""); w.Code != http.StatusOK {
			t.Fatalf("cluster flush = %d: %s", w.Code, w.Body)
		}
	}
	for _, q := range equivQueries {
		wj := do(t, jsonCluster, http.MethodGet, "/v1/query?q="+q, "")
		wb := do(t, binCluster, http.MethodGet, "/v1/query?q="+q, "")
		if wj.Code != http.StatusOK || wb.Code != http.StatusOK {
			t.Fatalf("q=%s: json %d, binary %d (%s | %s)", q, wj.Code, wb.Code, wj.Body, wb.Body)
		}
		if !bytes.Equal(wj.Body.Bytes(), wb.Body.Bytes()) {
			t.Fatalf("cluster q=%s responses differ:\njson:   %s\nbinary: %s", q, wj.Body, wb.Body)
		}
	}
}

// TestIngestThroughputGuard is the regression gate on the tentpole's
// point: binary chunk ingest must not be slower than JSON ingest for the
// same rows through the same HTTP server (in practice it is several
// times faster; this guard only pins the sign). Wall-clock ratios are
// noisy, so it runs only under pairtest.Gate (MEMAGG_GUARDS=1) —
// scripts/ci.sh sets it.
func TestIngestThroughputGuard(t *testing.T) {
	pairtest.Gate(t)
	const n, batchLen = 1 << 20, 8192
	spec := dataset.Spec{Kind: dataset.RseqShf, N: n, Cardinality: 1 << 16, Seed: 41}
	keys := spec.Keys()
	vals := dataset.Values(len(keys), spec.Seed)

	run := func(binary bool) time.Duration {
		s := memagg.NewStream(memagg.StreamOptions{Shards: 2, SealRows: 1 << 15})
		defer s.Close()
		srv := newServer(s)
		ts := httptest.NewServer(srv)
		defer ts.Close()
		client := &http.Client{}
		start := time.Now()
		for i := 0; i < n; i += batchLen {
			j := min(i+batchLen, n)
			b := wireBatch{keys: keys[i:j], vals: vals[i:j]}
			var (
				body []byte
				ct   string
			)
			if binary {
				body, ct = b.chunkBody(), memagg.ChunkContentType
			} else {
				body, ct = []byte(b.jsonBody()), "application/json"
			}
			resp, err := client.Post(ts.URL+"/v1/ingest", ct, bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("ingest = %d", resp.StatusCode)
			}
			resp.Body.Close()
		}
		return time.Since(start)
	}

	pairtest.Run(t, 1.0,
		func() time.Duration { return run(true) },
		func() time.Duration { return run(false) })
}
