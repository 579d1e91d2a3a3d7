package stream

import (
	"sync"

	"memagg/internal/agg"
)

// qentry is one materialized (or in-flight) result. done closes when val
// is set; waiters block on it, which is the single-flight: concurrent
// identical queries find the entry the first caller installed and wait
// for its compute instead of repeating it.
type qentry struct {
	done chan struct{}
	val  any
}

// queryCache memoizes snapshot query results for one view, keyed by the
// query — id plus every parameter that shapes its result. The watermark is
// not part of the key: the cache lives on the view, so a new watermark is
// a new cache and results can never cross views. Entries are bounded; at
// capacity the oldest entry is evicted (views are short-lived under steady
// ingest — every seal supersedes them — so FIFO is as good as LRU here and
// needs no per-hit bookkeeping).
type queryCache struct {
	cap   int
	mu    sync.Mutex
	m     map[agg.Query]*qentry
	order []agg.Query
}

func newQueryCache(cap int) *queryCache {
	return &queryCache{cap: cap, m: make(map[agg.Query]*qentry)}
}

// do returns the cached value for k, computing it via compute on the
// first call. Exactly one caller computes; the rest wait on the entry.
// The hit/miss/evict counters land in the stream's metrics registry.
func (c *queryCache) do(m *metrics, k agg.Query, compute func() any) any {
	c.mu.Lock()
	if e, ok := c.m[k]; ok {
		c.mu.Unlock()
		m.qcacheHits.Inc()
		<-e.done
		return e.val
	}
	e := &qentry{done: make(chan struct{})}
	if len(c.m) >= c.cap {
		// Evict the oldest slot. An in-flight victim stays valid for its
		// waiters (they hold the entry pointer); it just becomes
		// invisible to new lookups, which recompute.
		victim := c.order[0]
		c.order = c.order[1:]
		delete(c.m, victim)
		m.qcacheEvicts.Inc()
	}
	c.m[k] = e
	c.order = append(c.order, k)
	c.mu.Unlock()
	m.qcacheMisses.Inc()
	defer close(e.done) // set even if compute panics, so waiters unblock
	e.val = compute()
	return e.val
}
