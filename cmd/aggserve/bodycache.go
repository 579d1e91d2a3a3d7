package main

import (
	"log"
	"net/http"
	"strconv"
	"sync"

	"memagg/internal/obs"
)

// Body-cache bounds. The cache holds one entry per request URI, the body
// of its newest tag, so the bounds cap distinct URIs, not watermarks.
// bench/'s dash_refresh polls 7 distinct URIs whose newest bodies total
// 4,048,789 bytes (memagg_http_body_cache_bytes at the end of a seed-7
// run); 64 entries and 16 MiB hold that working set about four times
// over. A body over the byte cap is served but never stored.
const (
	bodyCacheEntries = 64
	bodyCacheBytes   = 16 << 20
)

// bodyEntry is one URI's newest encoded body and the entity tag the
// handler computed for it: the snapshot watermark, or a view's
// registration, version and watermark. Within one process both only move
// forward, so once a URI's tag moves its older bodies can never hit again
// and the entry is replaced rather than kept beside the new one.
type bodyEntry struct {
	etag string
	body []byte
}

// bodyCache holds encoded query and view bodies by request URI (path and
// query string: the query and its parameters, or the view name), so a GET
// whose tag has not moved since the last one writes stored bytes: no
// query, no row copy, no encode. A lookup hits only when the stored tag
// matches. Eviction is FIFO over URIs. Safe for concurrent use; stored
// bodies are immutable.
type bodyCache struct {
	mu    sync.Mutex
	m     map[string]bodyEntry
	order []string // URIs in insertion order, oldest first
	bytes int

	hits, misses *obs.Counter
	live         *obs.Gauge
}

func newBodyCache(reg *obs.Registry) *bodyCache {
	return &bodyCache{
		m: make(map[string]bodyEntry),
		hits: reg.NewCounter("memagg_http_body_cache_hits_total",
			"Query and view GETs answered from the encoded-body cache."),
		misses: reg.NewCounter("memagg_http_body_cache_misses_total",
			"Query and view GETs that looked up the encoded-body cache and found nothing."),
		live: reg.NewGauge("memagg_http_body_cache_bytes",
			"Bytes of encoded bodies the body cache holds."),
	}
}

// get returns the body stored for uri if it was stored under etag,
// counting the hit or miss.
func (c *bodyCache) get(uri, etag string) ([]byte, bool) {
	c.mu.Lock()
	e, ok := c.m[uri]
	c.mu.Unlock()
	if ok && e.etag == etag {
		c.hits.Inc()
		return e.body, true
	}
	c.misses.Inc()
	return nil, false
}

// put stores body as uri's entry under etag, replacing the body of an
// older tag, and evicts the oldest URIs until both bounds hold. A body
// over the byte cap is not stored.
func (c *bodyCache) put(uri, etag string, body []byte) {
	if len(body) > bodyCacheBytes {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if old, ok := c.m[uri]; ok {
		c.bytes -= len(old.body)
	} else {
		for len(c.order) >= bodyCacheEntries {
			c.evictOldest()
		}
		c.order = append(c.order, uri)
	}
	c.m[uri] = bodyEntry{etag, body}
	c.bytes += len(body)
	for c.bytes > bodyCacheBytes {
		c.evictOldest()
	}
	c.live.Set(int64(c.bytes))
}

// evictOldest drops the oldest URI's entry. The caller holds c.mu.
func (c *bodyCache) evictOldest() {
	uri := c.order[0]
	c.order = c.order[1:]
	c.bytes -= len(c.m[uri].body)
	delete(c.m, uri)
}

// writeBody writes an encoded query or view body with its entity tag and
// an explicit Content-Length.
func writeBody(w http.ResponseWriter, etag string, body []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	h.Set("ETag", etag)
	if _, err := w.Write(body); err != nil {
		log.Printf("aggserve: write: %v", err)
	}
}
