package main

import (
	"encoding/json"
	"errors"
	"net/http"

	"memagg"
	"memagg/internal/cluster"
	"memagg/internal/obs"
)

// routerServer wires a cluster.Router to the same HTTP API a single node
// serves: clients speak one protocol whether they face one aggserve or a
// sharded fleet. Ingest batches are split by group-key hash and shipped
// to the owning workers; queries scatter-gather every worker's partial
// set and merge exactly; responses carry the composed cluster watermark
// and its ETag.
type routerServer struct {
	rt *cluster.Router
	*http.ServeMux
}

func newRouterServer(rt *cluster.Router) *routerServer {
	srv := &routerServer{rt: rt}
	srv.ServeMux = newAPIMux(obs.NewRegistry(), []route{
		{"/ingest", srv.handleIngest},
		{"/flush", srv.handleFlush},
		{"/query", srv.handleQuery},
		{"/cluster/stats", srv.handleClusterStats},
		{"/healthz", srv.handleHealthz},
		{"/readyz", srv.handleReadyz},
	}, obs.Default, rt.Registry())
	return srv
}

// clusterStatus maps a router error to its HTTP status: 503 when peers
// are unreachable (breaker open, retries exhausted, partial gather) —
// the retryable condition — and 500 for anything else.
func clusterStatus(err error) int {
	if errors.Is(err, cluster.ErrPeerUnavailable) {
		return http.StatusServiceUnavailable
	}
	return http.StatusInternalServerError
}

// clusterError writes a router failure in the shared error envelope,
// with its typed detail: a partial gather additionally names the
// unreachable peers so operators see which shard is out rather than a
// bare 503.
func clusterError(w http.ResponseWriter, err error) {
	var pa *cluster.PartialAvailabilityError
	if errors.As(err, &pa) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		_ = json.NewEncoder(w).Encode(map[string]any{
			"error":   "partial availability: exact results need every shard",
			"code":    http.StatusServiceUnavailable,
			"missing": pa.Missing,
		})
		return
	}
	httpError(w, clusterStatus(err), err.Error())
}

func (srv *routerServer) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	if isChunkRequest(r) {
		// Binary chunk stream in, binary chunks out: each decoded chunk
		// scatters columnar-wise by ring owner — one partition pass, one
		// outbound wire chunk per peer, no JSON anywhere on the path.
		rows, err := ingestChunks(r.Body, srv.rt.IngestChunk)
		if err != nil {
			if status, msg := chunkStatus(err); status == http.StatusBadRequest {
				httpError(w, status, msg)
			} else {
				clusterError(w, err)
			}
			return
		}
		writeJSON(w, map[string]any{"appended": rows, "ingested": srv.rt.IngestRows()})
		return
	}
	c, ok := readIngestJSON(w, r)
	if !ok {
		return
	}
	if err := srv.rt.IngestChunk(c); err != nil {
		clusterError(w, err)
		return
	}
	writeJSON(w, map[string]any{"appended": c.Rows(), "ingested": srv.rt.IngestRows()})
}

func (srv *routerServer) handleFlush(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	if err := srv.rt.Flush(); err != nil {
		clusterError(w, err)
		return
	}
	writeJSON(w, map[string]any{"flushed": true})
}

func (srv *routerServer) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	// Parse before gathering: a malformed query must not cost a
	// cluster-wide transfer, nor turn into a 503 when a peer is down.
	params := r.URL.Query()
	name := params.Get("q")
	q, err := parseQuery(params)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	m, err := srv.rt.Gather()
	if err != nil {
		clusterError(w, err)
		return
	}
	// The composed watermark vector, with the peers' incarnation ids
	// folded in, fully determines every query result (per URL), so it is
	// the entity tag — the single-node contract, lifted (see
	// cluster.Merged.ETag). The gather itself cannot be skipped (the tag
	// is only known from the peers' responses), but the merge-side query
	// work and the response body can. A peer restart changes the tag even
	// when the vector comes back to an old value, so it costs each client
	// one full re-download. The router keeps no body cache.
	etag := m.ETag()
	if etagMatches(r.Header.Get("If-None-Match"), etag) {
		w.Header().Set("ETag", etag)
		w.WriteHeader(http.StatusNotModified)
		return
	}
	rows, err := m.Run(q)
	if err != nil {
		httpError(w, queryStatus(err), err.Error())
		return
	}
	writeBody(w, etag, appendClusterQueryBody(nil, name, m.Watermark, memagg.ResultRows(rows)))
}

func (srv *routerServer) handleClusterStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, map[string]any{
		"peers":       srv.rt.Stats(),
		"ingest_rows": srv.rt.IngestRows(),
	})
}

func (srv *routerServer) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, map[string]any{"ok": true})
}

// handleReadyz reports whether the whole membership is ready: the router
// is only useful when every shard owner accepts writes, so its readiness
// is the conjunction of its peers' /readyz.
func (srv *routerServer) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if err := srv.rt.Ready(); err != nil {
		httpError(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	writeJSON(w, map[string]any{"ready": true, "peers": len(srv.rt.Peers())})
}
