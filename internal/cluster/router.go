package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"memagg/internal/agg"
	"memagg/internal/chash"
	"memagg/internal/obs"
)

// The router's failure protocol. Every peer gets a bounded in-flight
// window (a slow peer queues its own work without starving the others);
// a transiently failed request is retried with a doubling backoff; and a
// run of consecutive transient failures trips the peer's circuit breaker
// open until the cooldown admits one half-open probe.
const (
	maxInflight      = 4                     // concurrent requests per peer
	retries          = 3                     // total attempts = retries+1
	retryBackoff     = 25 * time.Millisecond // first retry's delay
	breakerThreshold = 5                     // consecutive failures that trip
	breakerCooldown  = time.Second           // open time before a probe
)

// client issues every router request. Its overall timeout bounds a hung
// peer; the breaker handles repeats.
var client = &http.Client{Timeout: 30 * time.Second}

// peer is the router's per-node state: the bounded in-flight window and
// the circuit breaker.
type peer struct {
	url      string
	inflight chan struct{}
	brk      *breaker
}

// Router shards ingest across the peer set by consistent group-key hash
// and answers queries by scatter-gathering partial aggregates. Safe for
// concurrent use; one Router per cluster.
type Router struct {
	urls  []string
	ring  *chash.Ring
	peers []*peer
	m     *metrics

	// sleep waits out retry backoff and readiness polls; in-package tests
	// stub it.
	sleep func(time.Duration)
}

// NewRouter builds a router over the static membership peers: worker
// base URLs ("http://host:port") whose order defines node ids and the
// watermark vector layout. Errors when the membership is empty.
func NewRouter(peers []string) (*Router, error) {
	if len(peers) == 0 {
		return nil, errors.New("cluster: no peers configured")
	}
	rt := &Router{
		urls:  peers,
		ring:  chash.NewRing(len(peers), chash.DefaultReplicas),
		m:     newMetrics(),
		sleep: time.Sleep,
	}
	for _, u := range peers {
		p := &peer{
			url:      u,
			inflight: make(chan struct{}, maxInflight),
			brk:      newBreaker(breakerThreshold, breakerCooldown, time.Now),
		}
		rt.peers = append(rt.peers, p)
		rt.m.brkState.With(u).Set(breakerClosed)
	}
	return rt, nil
}

// Peers returns the membership base URLs in node-id order.
func (rt *Router) Peers() []string { return rt.urls }

// Owner returns the node id owning the given group key.
func (rt *Router) Owner(key uint64) int { return rt.ring.Owner(key) }

// Registry exposes the router's metrics registry for /metrics serving.
func (rt *Router) Registry() *obs.Registry { return rt.m.reg }

// errBreakerOpen is the underlying cause inside a PeerError when the
// peer's breaker rejected the request locally.
var errBreakerOpen = errors.New("circuit breaker open")

// transientStatus reports whether an HTTP status indicates a condition a
// retry may fix: server-side failures and explicit backpressure. Other
// non-2xx statuses are permanent — the peer is alive and rejected the
// request, so retrying (and tripping the breaker) would be wrong.
func transientStatus(code int) bool {
	return code >= 500 || code == http.StatusTooManyRequests
}

// recordState refreshes the peer's breaker-state gauge.
func (rt *Router) recordState(p *peer) {
	rt.m.brkState.With(p.url).Set(int64(p.brk.state()))
}

// do runs one logical request against p with the full failure protocol:
// breaker gate, bounded in-flight window, retry with doubling backoff on
// transient failures. build must return a fresh request per attempt
// (bodies are single-use). On success the response (status 2xx) is
// returned with its body open — the caller owns closing it. On failure
// the returned error is a *PeerError.
func (rt *Router) do(p *peer, op string, build func() (*http.Request, error)) (*http.Response, error) {
	fail := func(err error) (*http.Response, error) {
		rt.m.errors.With(p.url, op).Inc()
		return nil, &PeerError{Peer: p.url, Op: op, Err: err}
	}
	p.inflight <- struct{}{}
	defer func() { <-p.inflight }()

	backoff := retryBackoff
	var lastErr error
	for attempt := 0; attempt <= retries; attempt++ {
		if attempt > 0 {
			rt.m.retries.With(p.url).Inc()
			rt.sleep(backoff)
			backoff *= 2
		}
		if !p.brk.allow() {
			rt.recordState(p)
			if lastErr == nil {
				lastErr = errBreakerOpen
			}
			return fail(lastErr)
		}
		req, err := build()
		if err != nil {
			return fail(err) // programming error, not a peer failure
		}
		rt.m.requests.With(p.url, op).Inc()
		mk := obs.Start()
		resp, err := client.Do(req)
		if err != nil {
			lastErr = err
			if p.brk.failure() {
				rt.m.brkTrips.With(p.url).Inc()
			}
			rt.recordState(p)
			continue
		}
		if resp.StatusCode >= 200 && resp.StatusCode < 300 {
			p.brk.success()
			rt.recordState(p)
			mk.Tick(rt.m.latency.With(p.url))
			return resp, nil
		}
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		resp.Body.Close()
		lastErr = fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
		if !transientStatus(resp.StatusCode) {
			// The peer is alive and answered; this is our request's
			// problem. Clear the failure run and stop retrying.
			p.brk.success()
			rt.recordState(p)
			return fail(lastErr)
		}
		if p.brk.failure() {
			rt.m.brkTrips.With(p.url).Inc()
		}
		rt.recordState(p)
	}
	return fail(lastErr)
}

// IngestChunk scatters one columnar chunk across the peers by group-key
// hash: one partition pass computes every row's ring owner, the columns
// split into exactly-sized per-peer chunks, and each peer receives one
// binary chunk-stream POST (the wire format its /v1/ingest decodes
// without JSON parsing). Returns nil when every owner acknowledged its
// rows; otherwise the joined *PeerError set — rows for healthy peers are
// still applied (at-least-once per sub-chunk; the stream's append is
// atomic per call, so a failed peer's rows are simply absent until
// re-sent).
func (rt *Router) IngestChunk(c agg.Chunk) error {
	if err := c.Validate(); err != nil {
		return err
	}
	n := len(rt.peers)
	rows := c.Rows()
	// One Owner pass over the key column; the owner vector then drives an
	// exactly-presized columnar split — no re-hash, no append growth.
	owners := make([]uint16, rows)
	counts := make([]int, n)
	for i, k := range c.Keys {
		o := rt.ring.Owner(k)
		owners[i] = uint16(o)
		counts[o]++
	}
	parts := make([]agg.Chunk, n)
	for o, cnt := range counts {
		if cnt > 0 {
			parts[o] = agg.Chunk{Keys: make([]uint64, 0, cnt), Vals: make([]uint64, 0, cnt)}
		}
	}
	for i, o := range owners {
		p := &parts[o]
		p.Keys = append(p.Keys, c.Keys[i])
		v := uint64(0)
		if i < len(c.Vals) {
			v = c.Vals[i]
		}
		p.Vals = append(p.Vals, v)
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i, part := range parts {
		if part.Rows() == 0 {
			continue
		}
		wg.Add(1)
		go func(i int, part agg.Chunk) {
			defer wg.Done()
			errs[i] = rt.postChunk(rt.peers[i], part)
			if errs[i] == nil {
				rt.m.rows.Add(uint64(part.Rows()))
				rt.m.batches.Inc()
			}
		}(i, part)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// postChunk ships one chunk to a peer as a binary chunk-stream body on
// /v1/ingest. The body is encoded once; retries re-read the same bytes.
func (rt *Router) postChunk(p *peer, c agg.Chunk) error {
	payload := agg.AppendChunkWire(make([]byte, 0, agg.ChunkWireSize(c.Rows())), c)
	resp, err := rt.do(p, "ingest", func() (*http.Request, error) {
		req, err := http.NewRequest(http.MethodPost, p.url+"/v1/ingest", bytes.NewReader(payload))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", agg.ChunkContentType)
		return req, nil
	})
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return nil
}

// Flush broadcasts a flush (seal shard buffers into a sealed delta) to
// every peer, making all previously acknowledged rows visible to the
// next Gather.
func (rt *Router) Flush() error {
	errs := make([]error, len(rt.peers))
	var wg sync.WaitGroup
	for i, p := range rt.peers {
		wg.Add(1)
		go func(i int, p *peer) {
			defer wg.Done()
			errs[i] = rt.send(p, "flush", http.MethodPost, "/v1/flush")
		}(i, p)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// send runs one bodiless request against p and drains the response.
func (rt *Router) send(p *peer, op, method, path string) error {
	resp, err := rt.do(p, op, func() (*http.Request, error) {
		return http.NewRequest(method, p.url+path, nil)
	})
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return nil
}

// Gather scatter-gathers every peer's partial set and merges them into
// one exact cluster-wide Merged state. All peers must answer: partial
// coverage would silently drop groups, so any unreachable peer fails the
// whole gather with a *PartialAvailabilityError.
func (rt *Router) Gather() (*Merged, error) {
	rt.m.queries.Inc()
	n := len(rt.peers)
	sets := make([]*peerSet, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i, p := range rt.peers {
		wg.Add(1)
		go func(i int, p *peer) {
			defer wg.Done()
			sets[i], errs[i] = rt.fetchPartials(p)
		}(i, p)
	}
	wg.Wait()
	var pae PartialAvailabilityError
	for i, err := range errs {
		if err != nil {
			pae.Missing = append(pae.Missing, rt.peers[i].url)
			pae.Errs = append(pae.Errs, err)
		}
	}
	if len(pae.Missing) > 0 {
		rt.m.queryErrs.Inc()
		return nil, &pae
	}
	return merge(sets), nil
}

// peerSet is one peer's decoded partial set.
type peerSet struct {
	hdr   setHeader
	parts []agg.Table // by radix.PartitionIndex at gatherBits
}

// fetchPartials GETs and decodes one peer's /v1/partials stream. Decode
// errors are transport-grade failures (a torn or corrupt response) and
// surface as *PeerError like any other unreachable-peer condition.
func (rt *Router) fetchPartials(p *peer) (*peerSet, error) {
	resp, err := rt.do(p, "partials", func() (*http.Request, error) {
		return http.NewRequest(http.MethodGet, p.url+"/v1/partials", nil)
	})
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	set := &peerSet{parts: make([]agg.Table, 1<<gatherBits)}
	hdr, err := DecodePartialSet(resp.Body, set.parts)
	if err != nil {
		rt.m.errors.With(p.url, "partials").Inc()
		return nil, &PeerError{Peer: p.url, Op: "partials", Err: err}
	}
	set.hdr = hdr
	return set, nil
}

// Ready probes every peer's /v1/readyz. nil means the whole membership is
// ready (recovery complete, not degraded); otherwise the joined
// *PeerError set names the stragglers. The router's caller gates cluster
// traffic on this — /readyz is the membership contract.
func (rt *Router) Ready() error {
	errs := make([]error, len(rt.peers))
	var wg sync.WaitGroup
	for i, p := range rt.peers {
		wg.Add(1)
		go func(i int, p *peer) {
			defer wg.Done()
			errs[i] = rt.send(p, "readyz", http.MethodGet, "/v1/readyz")
		}(i, p)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// WaitReady polls Ready until it succeeds or the timeout elapses.
func (rt *Router) WaitReady(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		err := rt.Ready()
		if err == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("cluster: not ready after %v: %w", timeout, err)
		}
		rt.sleep(25 * time.Millisecond)
	}
}

// PeerStats is one peer's router-side health summary — the /cluster/stats
// row.
type PeerStats struct {
	Peer     string `json:"peer"`
	Breaker  string `json:"breaker"` // "closed", "open", "half-open"
	Requests uint64 `json:"requests"`
	Errors   uint64 `json:"errors"`
	Retries  uint64 `json:"retries"`
	Trips    uint64 `json:"breaker_trips"`
	Inflight int    `json:"inflight"`
}

func breakerName(s int) string {
	switch s {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// Stats summarizes per-peer request and breaker health.
func (rt *Router) Stats() []PeerStats {
	ops := []string{"ingest", "flush", "partials", "readyz"}
	out := make([]PeerStats, len(rt.peers))
	for i, p := range rt.peers {
		st := PeerStats{
			Peer:     p.url,
			Breaker:  breakerName(p.brk.state()),
			Retries:  rt.m.retries.With(p.url).Value(),
			Trips:    rt.m.brkTrips.With(p.url).Value(),
			Inflight: len(p.inflight),
		}
		for _, op := range ops {
			st.Requests += rt.m.requests.With(p.url, op).Value()
			st.Errors += rt.m.errors.With(p.url, op).Value()
		}
		out[i] = st
	}
	return out
}

// IngestRows returns the total rows successfully sharded — the
// "ingested" count the router's ingest responses report.
func (rt *Router) IngestRows() uint64 { return rt.m.rows.Value() }
