package stream

import (
	"sync"
	"testing"

	"memagg/internal/agg"
)

// TestAppendChunkOwnedEquivalence feeds the same rows through the copying
// and ownership-transfer paths and requires identical aggregate state —
// including the zero-extension of a short value column, which the owned
// path must materialize itself (the transferred slice cannot be grown in
// place).
func TestAppendChunkOwnedEquivalence(t *testing.T) {
	const batches, rows = 50, 200
	mk := func(b int) agg.Chunk {
		c := agg.Chunk{Keys: make([]uint64, rows), Vals: make([]uint64, rows-b%7)}
		for i := range c.Keys {
			c.Keys[i] = uint64((b*rows + i) % 97)
			if i < len(c.Vals) {
				c.Vals[i] = uint64(b + i)
			}
		}
		return c
	}

	copied := New(Config{Shards: 1, SealRows: 1 << 9})
	owned := New(Config{Shards: 1, SealRows: 1 << 9})
	for b := 0; b < batches; b++ {
		if err := copied.AppendChunk(mk(b), false); err != nil {
			t.Fatal(err)
		}
		if err := owned.AppendChunk(mk(b), true); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range []*Stream{copied, owned} {
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}

	a, b := copied.Snapshot(), owned.Snapshot()
	if a.Watermark() != b.Watermark() || a.Groups() != b.Groups() {
		t.Fatalf("watermark/groups: copied %d/%d, owned %d/%d",
			a.Watermark(), a.Groups(), b.Watermark(), b.Groups())
	}
	ra, rb := a.Reduce(agg.OpSum), b.Reduce(agg.OpSum)
	sums := make(map[uint64]uint64, len(ra))
	for _, g := range ra {
		sums[g.Key] = g.Value
	}
	for _, g := range rb {
		if sums[g.Key] != g.Value {
			t.Fatalf("key %d: copied sum %d, owned sum %d", g.Key, sums[g.Key], g.Value)
		}
	}
}

// TestAppendChunkPoolRecycling hammers concurrent producers through both
// chunk paths on a multi-shard stream so the buffer pool recycles across
// shards while the race detector watches; the row accounting at the end
// catches any chunk lost or double-counted through the pool.
func TestAppendChunkPoolRecycling(t *testing.T) {
	s := New(Config{Shards: 4, QueueDepth: 2, SealRows: 512})
	const producers, batches, rows = 4, 60, 128
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				c := agg.Chunk{Keys: make([]uint64, rows), Vals: make([]uint64, rows)}
				for i := range c.Keys {
					c.Keys[i] = uint64(i % 31)
					c.Vals[i] = 1
				}
				// Alternate modes so pooled buffers flow between the
				// copying path and ownership transfer.
				if err := s.AppendChunk(c, b%2 == 0); err != nil {
					t.Error(err)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	want := uint64(producers * batches * rows)
	if st := s.Stats(); st.Ingested != want || st.Watermark != want {
		t.Fatalf("ingested/watermark = %d/%d want %d", st.Ingested, st.Watermark, want)
	}
	var total uint64
	for _, g := range s.Snapshot().Reduce(agg.OpSum) {
		total += g.Value
	}
	if total != want {
		t.Fatalf("sum of vals = %d want %d", total, want)
	}
}

// TestAppendChunkRejectsInvalid pins the Validate contract at the stream
// boundary: a value column longer than the key column is refused.
func TestAppendChunkRejectsInvalid(t *testing.T) {
	s := New(Config{Shards: 1})
	defer s.Close()
	err := s.AppendChunk(agg.Chunk{Keys: []uint64{1}, Vals: []uint64{1, 2}}, false)
	if err == nil {
		t.Fatal("invalid chunk accepted")
	}
	if st := s.Stats(); st.Ingested != 0 {
		t.Fatalf("rejected chunk counted: ingested = %d", st.Ingested)
	}
}
