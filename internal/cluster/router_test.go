package cluster

import (
	"bufio"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"memagg/internal/agg"
	"memagg/internal/stream"
)

// testNode is a fake worker: the four /v1 routes the Router calls, over
// one in-process stream. Every stream refusal answers 503; the router
// retries it like aggserve's 503 and 500 alike. cmd/aggserve's tests
// drive the real node handlers behind a router.
func testNode(s *stream.Stream) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/ingest", func(w http.ResponseWriter, r *http.Request) {
		br := bufio.NewReader(r.Body)
		for {
			c, err := agg.ReadChunk(br)
			if err == io.EOF {
				return
			}
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			if err := s.AppendChunk(c); err != nil {
				http.Error(w, err.Error(), http.StatusServiceUnavailable)
				return
			}
		}
	})
	mux.HandleFunc("POST /v1/flush", func(w http.ResponseWriter, r *http.Request) {
		if err := s.Flush(); err != nil {
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
		}
	})
	mux.HandleFunc("GET /v1/partials", func(w http.ResponseWriter, r *http.Request) {
		buf, err := EncodeSnapshot(nil, s.Snapshot())
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Write(buf)
	})
	mux.HandleFunc("GET /v1/readyz", func(w http.ResponseWriter, r *http.Request) {
		if s.Closed() || s.ReadOnly() {
			http.Error(w, "not ready", http.StatusServiceUnavailable)
		}
	})
	return mux
}

// testCluster spins up n in-process worker nodes (stream + testNode over
// httptest) and a router over them with test-friendly timings.
func testCluster(t *testing.T, n int, cfg stream.Config) (*Router, []*stream.Stream, []*httptest.Server) {
	t.Helper()
	streams := make([]*stream.Stream, n)
	servers := make([]*httptest.Server, n)
	peers := make([]string, n)
	for i := range streams {
		streams[i] = stream.New(cfg)
		servers[i] = httptest.NewServer(testNode(streams[i]))
		peers[i] = servers[i].URL
	}
	t.Cleanup(func() {
		for i := range streams {
			servers[i].Close()
			streams[i].Close()
		}
	})
	rt, err := NewRouter(peers)
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	rt.sleep = func(time.Duration) {} // no real backoff in tests
	return rt, streams, servers
}

// testRows builds a deterministic skewed dataset: keys in [0, card),
// vals in [0, 1000).
func testRows(rows, card int) (keys, vals []uint64) {
	keys = make([]uint64, rows)
	vals = make([]uint64, rows)
	rng := uint64(0x243F6A8885A308D3)
	for i := range keys {
		rng = rng*6364136223846793005 + 1442695040888963407
		keys[i] = rng >> 33 % uint64(card)
		vals[i] = rng % 1000
	}
	return keys, vals
}

// sortRows returns a key-sorted copy of a vector result (single-node hash
// results are unordered; a gather's are ascending); scalars pass through.
func sortRows(v any) any {
	switch rows := v.(type) {
	case []agg.GroupCount:
		v = append([]agg.GroupCount(nil), rows...)
	case []agg.GroupFloat:
		v = append([]agg.GroupFloat(nil), rows...)
	case []agg.GroupUint:
		v = append([]agg.GroupUint(nil), rows...)
	}
	agg.SortRows(v)
	return v
}

// TestClusterEquivalence is the exactness gate: three worker nodes fed
// concurrently through the router answer every query of the paper's set
// — including the holistic Q3/quantile/mode, which no sketch-based
// system gets exact — identically to one local stream over the same
// rows. Pinned in scripts/ci.sh under -race.
func TestClusterEquivalence(t *testing.T) {
	const (
		rows  = 40_000
		card  = 1_500
		batch = 1_000
	)
	cfg := stream.Config{Shards: 2, SealRows: 2048, Holistic: true}
	rt, _, _ := testCluster(t, 3, cfg)

	local := stream.New(cfg)
	defer local.Close()

	keys, vals := testRows(rows, card)

	// Concurrent ingest through the router: 4 workers, disjoint batches.
	var wg sync.WaitGroup
	batches := make(chan int)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for off := range batches {
				end := off + batch
				if end > rows {
					end = rows
				}
				if err := rt.IngestChunk(agg.Chunk{Keys: keys[off:end], Vals: vals[off:end]}); err != nil {
					t.Errorf("router ingest: %v", err)
					return
				}
			}
		}()
	}
	for off := 0; off < rows; off += batch {
		batches <- off
	}
	close(batches)
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	if err := local.AppendChunk(agg.Chunk{Keys: keys, Vals: vals}); err != nil {
		t.Fatalf("local append: %v", err)
	}
	if err := rt.Flush(); err != nil {
		t.Fatalf("router flush: %v", err)
	}
	if err := local.Flush(); err != nil {
		t.Fatalf("local flush: %v", err)
	}

	m, err := rt.Gather()
	if err != nil {
		t.Fatalf("gather: %v", err)
	}
	sn := local.Snapshot()

	// Watermark composition: the vector sums to the row count, the ETag
	// carries every element.
	if got := m.Watermark.Total(); got != rows {
		t.Fatalf("cluster watermark total %d, want %d", got, rows)
	}
	if len(m.Watermark) != 3 {
		t.Fatalf("watermark vector has %d elements, want 3", len(m.Watermark))
	}
	etag := m.ETag()
	if !strings.HasPrefix(etag, `"c`) || strings.Count(etag, ".") != 2 {
		t.Fatalf("malformed cluster ETag %q", etag)
	}

	// Every query family through the one dispatcher on both sides: the
	// cluster's result must equal the single node's (key-sorted — the
	// gather's documented order), bit for bit, Q5/Q6 floats included.
	queries := []agg.Query{
		{ID: agg.QCountByKey},
		{ID: agg.QAvgByKey},
		{ID: agg.QReduce, Op: agg.OpCount},
		{ID: agg.QReduce, Op: agg.OpSum},
		{ID: agg.QReduce, Op: agg.OpMin},
		{ID: agg.QReduce, Op: agg.OpMax},
		{ID: agg.QMedianByKey},
		{ID: agg.QQuantile, P: 0.9},
		{ID: agg.QMode},
		{ID: agg.QCount},
		{ID: agg.QAvg},
		{ID: agg.QMedian},
		{ID: agg.QRange, Lo: card / 4, Hi: 3 * card / 4},
	}
	for _, q := range queries {
		got, err := m.Run(q)
		if err != nil {
			t.Fatalf("cluster %v: %v", q, err)
		}
		want, err := sn.Run(q)
		if err != nil {
			t.Fatalf("local %v: %v", q, err)
		}
		if !reflect.DeepEqual(got, sortRows(want)) {
			t.Errorf("%v diverged", q)
		}
	}
	if m.Groups() == 0 {
		t.Error("cluster has no groups")
	}
}

// TestClusterKillTripsBreaker: killing one worker mid-ingest trips its
// circuit breaker; subsequent ingests fail fast with the typed peer
// error, and queries report partial availability instead of hanging or
// silently dropping the dead node's groups.
func TestClusterKillTripsBreaker(t *testing.T) {
	rt, _, servers := testCluster(t, 3, stream.Config{Shards: 1, SealRows: 1024})
	keys, vals := testRows(6_000, 500)

	// Healthy warm-up.
	if err := rt.IngestChunk(agg.Chunk{Keys: keys[:2000], Vals: vals[:2000]}); err != nil {
		t.Fatalf("warm-up ingest: %v", err)
	}

	// Kill node 1 and keep ingesting: batches owned by the dead peer must
	// fail with typed errors, and repeated failures must trip its breaker.
	servers[1].Close()
	var sawPeerErr bool
	for off := 2000; off < 6000; off += 1000 {
		err := rt.IngestChunk(agg.Chunk{Keys: keys[off : off+1000], Vals: vals[off : off+1000]})
		if err == nil {
			t.Fatal("ingest to a killed peer succeeded")
		}
		if !errors.Is(err, ErrPeerUnavailable) {
			t.Fatalf("ingest error %v does not wrap ErrPeerUnavailable", err)
		}
		var pe *PeerError
		if errors.As(err, &pe) {
			sawPeerErr = true
			if pe.Peer != rt.Peers()[1] {
				t.Fatalf("failure attributed to %s, want %s", pe.Peer, rt.Peers()[1])
			}
		}
	}
	if !sawPeerErr {
		t.Fatal("no typed *PeerError surfaced")
	}

	// The breaker must now be open for the dead peer (default threshold 5
	// is well under the attempts above) and closed for the healthy ones.
	stats := rt.Stats()
	if stats[1].Breaker != "open" {
		t.Fatalf("dead peer breaker %q, want open (stats: %+v)", stats[1].Breaker, stats)
	}
	if stats[1].Trips == 0 {
		t.Fatal("no breaker trips recorded")
	}
	for _, i := range []int{0, 2} {
		if stats[i].Breaker != "closed" {
			t.Fatalf("healthy peer %d breaker %q, want closed", i, stats[i].Breaker)
		}
	}

	// Fail-fast: with the breaker open, an ingest touching the dead peer
	// returns immediately (no dials, no retries of a known-dead peer).
	start := time.Now()
	err := rt.IngestChunk(agg.Chunk{Keys: keys[:2000], Vals: vals[:2000]})
	if !errors.Is(err, ErrPeerUnavailable) {
		t.Fatalf("post-trip ingest error %v", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("post-trip ingest took %v — breaker is not failing fast", d)
	}

	// Queries: exactness demands all owners, so the gather fails with the
	// typed partial-availability error naming the dead peer.
	_, err = rt.Gather()
	var pa *PartialAvailabilityError
	if !errors.As(err, &pa) {
		t.Fatalf("gather error %v, want *PartialAvailabilityError", err)
	}
	if len(pa.Missing) != 1 || pa.Missing[0] != rt.Peers()[1] {
		t.Fatalf("missing peers %v, want [%s]", pa.Missing, rt.Peers()[1])
	}
	if !errors.Is(err, ErrPeerUnavailable) {
		t.Fatal("partial availability does not wrap ErrPeerUnavailable")
	}
}

// TestRouterReadyGating: Ready reflects every peer's /v1/readyz — a
// closed stream fails the membership check with a typed error.
func TestRouterReadyGating(t *testing.T) {
	rt, streams, _ := testCluster(t, 2, stream.Config{Shards: 1})
	if err := rt.WaitReady(5 * time.Second); err != nil {
		t.Fatalf("healthy cluster not ready: %v", err)
	}
	// Close node 0's stream: its /v1/readyz must flip to 503.
	streams[0].Close()
	err := rt.Ready()
	if !errors.Is(err, ErrPeerUnavailable) {
		t.Fatalf("Ready on degraded cluster: %v, want ErrPeerUnavailable", err)
	}
}

// TestRouterShardsByOwner: every key lands on the ring owner the router
// reports — the property that makes per-node partial sets disjoint.
func TestRouterShardsByOwner(t *testing.T) {
	rt, streams, _ := testCluster(t, 3, stream.Config{Shards: 1, SealRows: 512})
	keys, vals := testRows(9_000, 300)
	if err := rt.IngestChunk(agg.Chunk{Keys: keys, Vals: vals}); err != nil {
		t.Fatalf("ingest: %v", err)
	}
	if err := rt.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	// Each node must hold only keys the ring says it owns.
	for i, s := range streams {
		for _, gc := range s.Snapshot().CountByKey() {
			if own := rt.Owner(gc.Key); own != i {
				t.Fatalf("key %d on node %d, owner is %d", gc.Key, i, own)
			}
		}
	}
}
