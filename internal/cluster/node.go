package cluster

import (
	"bufio"
	"encoding/json"
	"errors"
	"io"
	"mime"
	"net/http"
	"strconv"

	"memagg/internal/agg"
	"memagg/internal/stream"
	"memagg/internal/wal"
)

// NodeHandler serves one worker node's cluster surface over a Stream,
// every route mounted under /v1/ with the unversioned path kept as an
// alias:
//
//	POST /v1/ingest    append rows; Content-Type negotiates the body:
//	                   application/x-memagg-chunk (binary chunk stream,
//	                   the fast path — decoded columns transfer straight
//	                   into the stream, zero copies) or JSON
//	                   {"keys":[...],"vals":[...]}
//	POST /v1/flush     seal shard buffers into a sealed delta
//	GET  /v1/partials  the node's full partial set (EncodeSnapshot wire)
//	GET  /v1/healthz   liveness: the process is up and serving
//	GET  /v1/readyz    readiness: open and not durability-degraded
//
// The request/response shapes match cmd/aggserve, so a Router fronts
// stock aggserve worker processes and these in-process handlers (tests,
// the harness) interchangeably.
func NodeHandler(s *stream.Stream) http.Handler {
	mux := http.NewServeMux()
	handle := func(route string, h http.HandlerFunc) {
		mux.HandleFunc("/v1"+route, h)
		mux.HandleFunc(route, h) // unversioned alias
	}
	handle("/ingest", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			nodeError(w, http.StatusMethodNotAllowed, "POST only")
			return
		}
		if isChunkBody(r) {
			rows, err := ingestChunkStream(r.Body, func(c agg.Chunk) error {
				return s.AppendChunk(c, true)
			})
			if err != nil {
				status, msg := chunkIngestStatus(err, nodeStatus)
				nodeError(w, status, msg)
				return
			}
			nodeJSON(w, map[string]any{"appended": rows})
			return
		}
		var req ingestBody
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			nodeError(w, http.StatusBadRequest, "bad ingest body: "+err.Error())
			return
		}
		if len(req.Vals) > len(req.Keys) {
			nodeError(w, http.StatusBadRequest, "more vals than keys")
			return
		}
		// The decoder allocated the columns for this request alone, so they
		// transfer to the stream without the AppendChunk copy.
		n := len(req.Keys)
		if err := s.AppendChunk(agg.Chunk{Keys: req.Keys, Vals: req.Vals}, true); err != nil {
			nodeError(w, nodeStatus(err), err.Error())
			return
		}
		nodeJSON(w, map[string]any{"appended": n})
	})
	handle("/flush", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			nodeError(w, http.StatusMethodNotAllowed, "POST only")
			return
		}
		if err := s.Flush(); err != nil {
			nodeError(w, nodeStatus(err), err.Error())
			return
		}
		nodeJSON(w, map[string]any{"flushed": true})
	})
	handle("/partials", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			nodeError(w, http.StatusMethodNotAllowed, "GET only")
			return
		}
		sn := s.Snapshot()
		// Encode fully before writing: the status line must not precede a
		// failure, and the watermark header documents the snapshot served.
		buf, err := EncodeSnapshot(nil, sn)
		if err != nil {
			nodeError(w, http.StatusInternalServerError, err.Error())
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("X-Memagg-Watermark", strconv.FormatUint(sn.Watermark(), 10))
		w.Write(buf)
	})
	handle("/healthz", func(w http.ResponseWriter, r *http.Request) {
		nodeJSON(w, map[string]any{"ok": true})
	})
	handle("/readyz", func(w http.ResponseWriter, r *http.Request) {
		if s.Closed() {
			nodeError(w, http.StatusServiceUnavailable, "stream closed")
			return
		}
		if st := s.Stats(); st.ReadOnly {
			nodeError(w, http.StatusServiceUnavailable, "durability degraded, read-only")
			return
		}
		nodeJSON(w, map[string]any{"ready": true})
	})
	return mux
}

// isChunkBody reports whether the request negotiated the binary chunk
// content type. Parameters (charset etc.) are ignored; a malformed
// Content-Type falls through to the JSON path, whose decoder rejects it
// with a useful message.
func isChunkBody(r *http.Request) bool {
	mt, _, err := mime.ParseMediaType(r.Header.Get("Content-Type"))
	return err == nil && mt == agg.ChunkContentType
}

// ingestChunkStream drains one binary chunk-stream body, handing each
// decoded chunk to sink (ownership transfers with it), and returns the
// total rows appended. Chunks already handed off before an error stay
// applied — the same at-least-once-per-batch semantics the JSON path has
// per request.
func ingestChunkStream(body io.Reader, sink func(agg.Chunk) error) (int, error) {
	br := bufio.NewReaderSize(body, 64<<10)
	rows := 0
	for {
		c, err := agg.ReadChunk(br)
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

// chunkIngestStatus splits a chunk-ingest failure into its HTTP status:
// wire-grade errors (malformed chunk, torn frame) are the client's 400;
// anything else came from the stream and maps via streamStatus.
func chunkIngestStatus(err error, streamStatus func(error) int) (int, string) {
	if errors.Is(err, agg.ErrChunkWire) || errors.Is(err, wal.ErrWALCorrupt) {
		return http.StatusBadRequest, "bad chunk body: " + err.Error()
	}
	return streamStatus(err), err.Error()
}

// nodeStatus maps a stream error to its HTTP status: 503 for conditions
// the router may retry or route around (closed, degraded), 500 otherwise
// — the same mapping cmd/aggserve uses, so breakers see one vocabulary.
func nodeStatus(err error) int {
	if errors.Is(err, stream.ErrClosed) || errors.Is(err, stream.ErrDurability) {
		return http.StatusServiceUnavailable
	}
	return http.StatusInternalServerError
}

func nodeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// nodeError writes the API's error envelope: {"error": ..., "code": ...},
// code echoing the HTTP status — the same shape cmd/aggserve's httpError
// writes, so clients parse one envelope across node and router surfaces.
func nodeError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]any{"error": msg, "code": code})
}
