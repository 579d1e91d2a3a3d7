package stream

import (
	"reflect"
	"sync"
	"testing"

	"memagg/internal/agg"
	"memagg/internal/dataset"
)

func cacheTestData(n, card int, seed uint64) ([]uint64, []uint64) {
	spec := dataset.Spec{Kind: dataset.RseqShf, N: n, Cardinality: card, Seed: seed}
	keys := spec.Keys()
	return keys, dataset.Values(len(keys), seed)
}

// TestQueryCacheSingleFlight proves concurrent identical queries against
// snapshots of one view compute once: every goroutine gets the exact
// cached rows (the same backing array), and the miss counter records a
// single compute.
func TestQueryCacheSingleFlight(t *testing.T) {
	keys, vals := cacheTestData(30_000, 5_000, 101)
	s := layeredStream(t, Config{SealRows: 1 << 12, MergeBits: 5}, keys, vals, len(keys)/2)
	defer s.Close()

	const goroutines = 16
	results := make([][]agg.GroupCount, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			results[g] = s.Snapshot().CountByKey()
		}(g)
	}
	wg.Wait()

	first := results[0]
	if len(first) == 0 {
		t.Fatal("empty Q1 result")
	}
	for g, r := range results {
		if &r[0] != &first[0] || len(r) != len(first) {
			t.Fatalf("goroutine %d got a different slice than the cached one", g)
		}
	}
	st := s.Stats()
	if st.QueryCacheMisses != 1 {
		t.Errorf("misses = %d, want 1 (single-flight)", st.QueryCacheMisses)
	}
	if st.QueryCacheHits != goroutines-1 {
		t.Errorf("hits = %d, want %d", st.QueryCacheHits, goroutines-1)
	}
}

// TestQueryCacheWatermarkIsolation proves cached results never cross
// watermarks: a snapshot taken before new rows seal keeps serving its
// exact original rows, while a snapshot of the advanced view computes
// fresh results at the new watermark.
func TestQueryCacheWatermarkIsolation(t *testing.T) {
	keys, vals := cacheTestData(20_000, 4_000, 102)
	s := layeredStream(t, Config{SealRows: 1 << 11, MergeBits: 5}, keys, vals, len(keys)/2)
	defer s.Close()

	oldSn := s.Snapshot()
	oldRows := oldSn.CountByKey()
	oldWM := oldSn.Watermark()

	// Advance the stream: the new seal installs a new view with a fresh
	// cache at a higher watermark.
	extra := []uint64{1, 2, 3, 4, 5, 6, 7, 8}
	if err := s.AppendChunk(agg.Chunk{Keys: extra, Vals: extra}, false); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}

	newSn := s.Snapshot()
	if newSn.Watermark() != oldWM+uint64(len(extra)) {
		t.Fatalf("new watermark %d, want %d", newSn.Watermark(), oldWM+uint64(len(extra)))
	}
	newRows := newSn.CountByKey()
	if len(newRows) > 0 && len(oldRows) > 0 && &newRows[0] == &oldRows[0] {
		t.Fatal("new view served the old view's cached slice")
	}
	var newTotal uint64
	for _, r := range newRows {
		newTotal += r.Count
	}
	if newTotal != newSn.Watermark() {
		t.Fatalf("new Q1 total %d != new watermark %d", newTotal, newSn.Watermark())
	}

	// The old snapshot still answers from its own view's cache: the very
	// same slice, still consistent with the old watermark.
	again := oldSn.CountByKey()
	if &again[0] != &oldRows[0] {
		t.Fatal("old snapshot recomputed instead of serving its cached rows")
	}
	var oldTotal uint64
	for _, r := range again {
		oldTotal += r.Count
	}
	if oldTotal != oldWM {
		t.Fatalf("old Q1 total %d != old watermark %d", oldTotal, oldWM)
	}
}

// TestQueryCacheParamsKeyed proves parameterized queries occupy distinct
// cache slots: different CountRange bounds and quantiles must not collide.
func TestQueryCacheParamsKeyed(t *testing.T) {
	keys, vals := cacheTestData(10_000, 2_000, 103)
	s := layeredStream(t, Config{SealRows: 1 << 11, MergeBits: 5, Holistic: true},
		keys, vals, len(keys)/2)
	defer s.Close()
	sn := s.Snapshot()

	full, err := sn.CountRange(0, ^uint64(0))
	if err != nil {
		t.Fatal(err)
	}
	if len(full) == 0 {
		t.Fatal("empty full-range result")
	}
	// Split at the median key of the full result so the narrow range is a
	// strict subset regardless of the key domain.
	narrow, err := sn.CountRange(0, full[len(full)/2].Key)
	if err != nil {
		t.Fatal(err)
	}
	if len(narrow) >= len(full) {
		t.Fatalf("narrow range (%d rows) not narrower than full (%d): params collided?",
			len(narrow), len(full))
	}
	p50, err := sn.QuantileByKey(0.5)
	if err != nil {
		t.Fatal(err)
	}
	p99, err := sn.QuantileByKey(0.99)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(p50, p99) {
		t.Fatal("p50 and p99 identical: quantile parameter not in the cache key")
	}
}

// TestQueryCacheEviction proves the per-view capacity bound: with a
// 2-entry cache, a third distinct query evicts the oldest, and re-running
// the evicted query recomputes (a fresh miss, equal rows).
func TestQueryCacheEviction(t *testing.T) {
	keys, vals := cacheTestData(10_000, 2_000, 104)
	s := layeredStream(t, Config{SealRows: 1 << 11, MergeBits: 5, QueryCacheEntries: 2},
		keys, vals, len(keys)/2)
	defer s.Close()
	sn := s.Snapshot()

	q1 := sn.CountByKey()    // miss 1
	_ = sn.AvgByKey()        // miss 2 (cache full)
	_ = sn.Reduce(agg.OpSum) // miss 3, evicts Q1
	st := s.Stats()
	if st.QueryCacheEvictions == 0 {
		t.Fatalf("no evictions after %d distinct queries in a 2-entry cache", 3)
	}
	q1again := sn.CountByKey() // recompute: fresh rows, equal values
	if &q1again[0] == &q1[0] {
		t.Fatal("evicted query served the old slice")
	}
	if !reflect.DeepEqual(q1again, q1) {
		t.Fatal("recomputed Q1 differs from the original")
	}
	if got := s.Stats().QueryCacheMisses; got != 4 {
		t.Errorf("misses = %d, want 4 (three initial + one post-eviction)", got)
	}
}

// TestQueryCacheDisabled proves QueryCacheEntries < 0 turns memoization
// off: repeated queries allocate fresh results and the counters stay
// untouched.
func TestQueryCacheDisabled(t *testing.T) {
	keys, vals := cacheTestData(10_000, 2_000, 105)
	s := layeredStream(t, Config{SealRows: 1 << 11, MergeBits: 5, QueryCacheEntries: -1},
		keys, vals, len(keys)/2)
	defer s.Close()
	sn := s.Snapshot()

	a := sn.CountByKey()
	b := sn.CountByKey()
	if &a[0] == &b[0] {
		t.Fatal("cache disabled but queries share a slice")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("repeated queries disagree")
	}
	st := s.Stats()
	if st.QueryCacheHits != 0 || st.QueryCacheMisses != 0 {
		t.Errorf("cache counters moved while disabled: hits=%d misses=%d",
			st.QueryCacheHits, st.QueryCacheMisses)
	}
}
