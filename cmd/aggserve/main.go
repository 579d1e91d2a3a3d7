// Command aggserve exposes a memagg streaming aggregation over HTTP: a
// minimal serving front-end for the internal/stream subsystem.
//
//	aggserve -addr :8080 -shards 4 -holistic
//	aggserve -data-dir /var/lib/memagg -sync always
//
// With -data-dir the stream is durable: every sealed delta is written to a
// write-ahead log before it becomes queryable, checkpoints bound replay,
// and a restart recovers the previous watermark (the boot log reports how
// many rows were recovered and how long it took). -sync picks the fsync
// policy (none | interval | always) and -checkpoint-every the checkpoint
// cadence in rows. If the log becomes unwritable the server degrades to
// read-only: /v1/ingest and /v1/flush return 503 while queries keep
// serving.
//
// Endpoints (every route is mounted under /v1/ only):
//
//	POST /v1/ingest   append one batch; Content-Type selects the body:
//	                  application/json  {"keys":[1,2,1],"vals":[10,20,30]}
//	                  application/x-memagg-chunk  binary chunk stream —
//	                  the fast path: wire columns decode once and transfer
//	                  into the stream without row materialization (see
//	                  memagg.AppendChunkWire and DESIGN.md §1.2k)
//	POST /v1/flush                                         visibility barrier
//	GET  /v1/query?q=q1|q2|...|q7|sum|min|max|quantile|mode
//	GET  /v1/views                list continuous views; POST registers one
//	GET  /v1/views/{name}         one view's description; DELETE drops it
//	GET  /v1/views/{name}/result  evaluate the standing query (ETag/304)
//	GET  /v1/stats                                         ingest/merge state
//	GET  /v1/partials             the node's partial set (cluster gather wire)
//	GET  /v1/healthz                                       liveness
//	GET  /v1/readyz               readiness: open and not durability-degraded
//	GET  /v1/metrics                                       Prometheus text format
//
// Router mode (-peers) serves /v1/ingest, /v1/flush, /v1/query,
// /v1/healthz, /v1/readyz and /v1/metrics with the same shapes, plus
// GET /v1/cluster/stats (per-peer request and breaker health).
//
// Errors share one JSON envelope: {"error": "...", "code": <status>}.
// JSON request bodies are capped at 64 MiB; a larger one answers 413.
//
// Query aliases: q1=count_by_key q2=avg_by_key q3=median_by_key q4=count
// q5=avg q6=median q7=range (with lo= and hi=); quantile takes p=0.9.
// Every query runs over a snapshot: a consistent state tagged with the
// row-count watermark it covers, taken without pausing ingest. Responses
// carry `ETag: "<watermark>"`; a request whose If-None-Match matches the
// current watermark gets 304 Not Modified before any query work runs.
// Query and merge parallelism follow GOMAXPROCS, and repeated dashboard
// queries against an unchanged snapshot are served from its result cache.
//
// /v1/metrics serves three metric groups in one scrape: the process-global
// instruments (engine phase timings, arena accounting), the stream's
// (ingest rows/batches, append latency, backpressure blocked time, seals,
// merges, snapshot staleness), and the server's own per-route request
// counters and latency histograms.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"memagg"
	"memagg/internal/cluster"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	shards := flag.Int("shards", 0, "writer shards (0 = one per CPU)")
	holistic := flag.Bool("holistic", false, "retain value multisets (median/quantile/mode queries)")
	seal := flag.Int("seal", 0, "rows per delta before it becomes visible (0 = default)")
	dataDir := flag.String("data-dir", "", "durability root (WAL + checkpoints); empty = volatile")
	syncPolicy := flag.String("sync", "interval", "WAL fsync policy: none | interval | always")
	checkpointEvery := flag.Int("checkpoint-every", 0,
		"rows between checkpoints (0 = default 1Mi, negative = WAL-only)")
	peers := flag.String("peers", "",
		"comma-separated worker base URLs; when set, run as a cluster router instead of a node")
	flag.Parse()

	if *peers != "" {
		runRouter(*addr, *peers)
		return
	}

	opts := memagg.StreamOptions{
		Workload: memagg.Workload{Output: memagg.Vector, Multithreaded: true},
		Shards:   *shards,
		SealRows: *seal,
		Holistic: *holistic,
	}
	if *dataDir != "" {
		opts.Durability = memagg.StreamDurability{
			Dir:             *dataDir,
			SyncPolicy:      *syncPolicy,
			CheckpointEvery: *checkpointEvery,
		}
	}
	start := time.Now()
	s, err := memagg.OpenStream(opts)
	if err != nil {
		log.Fatalf("aggserve: open stream: %v", err)
	}
	if *dataDir != "" {
		st := s.Stats()
		log.Printf("aggserve: recovered %d rows (checkpoint watermark %d) from %s in %v",
			st.Watermark, st.CheckpointWatermark, *dataDir, time.Since(start).Round(time.Millisecond))
	}

	srv := &http.Server{Addr: *addr, Handler: newServer(s)}
	done := make(chan struct{})
	go func() {
		defer close(done)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
		<-sig
		log.Print("aggserve: shutting down")
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("aggserve: shutdown: %v", err)
		}
		// In-flight handlers have drained; any that race the close observe
		// ErrClosed and map to 503 (Close is safe against concurrent
		// AppendChunk/Flush). On a durable stream Close also seals remaining
		// rows into the WAL and writes a final checkpoint, so the next boot
		// recovers the full watermark without replay.
		if err := s.Close(); err != nil {
			log.Printf("aggserve: close: %v", err)
		}
		if *dataDir != "" {
			st := s.Stats()
			log.Printf("aggserve: final checkpoint at watermark %d (%d checkpoints, %d WAL appends)",
				st.CheckpointWatermark, st.Checkpoints, st.WALAppends)
		}
	}()

	log.Printf("aggserve: listening on %s (shards=%d holistic=%v)", *addr, s.Stats().Shards, *holistic)
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	<-done
}

// runRouter serves the cluster-router mode: no local stream — ingest is
// sharded by group-key hash across the peer workers and queries
// scatter-gather their partial sets (see internal/cluster).
func runRouter(addr, peerList string) {
	var peers []string
	for _, p := range strings.Split(peerList, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peers = append(peers, p)
		}
	}
	rt, err := cluster.NewRouter(peers)
	if err != nil {
		log.Fatalf("aggserve: router: %v", err)
	}
	log.Printf("aggserve: router waiting for %d peers to be ready", len(peers))
	if err := rt.WaitReady(30 * time.Second); err != nil {
		// Start serving anyway: /readyz reports the gap, the breakers
		// shield the missing peers, and the fleet may simply still be
		// booting. Exact queries fail typed until the membership is whole.
		log.Printf("aggserve: router starting degraded: %v", err)
	}
	srv := &http.Server{Addr: addr, Handler: newRouterServer(rt)}
	done := make(chan struct{})
	go func() {
		defer close(done)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
		<-sig
		log.Print("aggserve: router shutting down")
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("aggserve: router shutdown: %v", err)
		}
	}()
	log.Printf("aggserve: router listening on %s (%d peers)", addr, len(peers))
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	<-done
}
