package stream

import (
	"sync"
	"testing"

	"memagg/internal/agg"
)

// TestAppendChunkShortValsZeroExtend pins the zero-extension of a short
// value column: the stream materializes the missing values as zeros in a
// column of its own (the caller's slice is read, never grown), so the
// aggregate state equals that of a stream fed the same rows with the
// zeros written out.
func TestAppendChunkShortValsZeroExtend(t *testing.T) {
	const batches, rows = 50, 200
	mk := func(b int, padded bool) agg.Chunk {
		nv := rows - b%7
		if padded {
			nv = rows
		}
		c := agg.Chunk{Keys: make([]uint64, rows), Vals: make([]uint64, nv)}
		for i := range c.Keys {
			c.Keys[i] = uint64((b*rows + i) % 97)
			if i < rows-b%7 {
				c.Vals[i] = uint64(b + i)
			}
		}
		return c
	}

	short := New(Config{Shards: 1, SealRows: 1 << 9})
	padded := New(Config{Shards: 1, SealRows: 1 << 9})
	for b := 0; b < batches; b++ {
		if err := short.AppendChunk(mk(b, false)); err != nil {
			t.Fatal(err)
		}
		if err := padded.AppendChunk(mk(b, true)); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range []*Stream{short, padded} {
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}

	a, b := short.Snapshot(), padded.Snapshot()
	if a.Watermark() != b.Watermark() || a.Groups() != b.Groups() {
		t.Fatalf("watermark/groups: short %d/%d, padded %d/%d",
			a.Watermark(), a.Groups(), b.Watermark(), b.Groups())
	}
	for _, op := range []agg.ReduceOp{agg.OpSum, agg.OpMin} {
		ra, rb := a.Reduce(op), b.Reduce(op)
		if len(ra) != len(rb) {
			t.Fatalf("op %v: %d groups short, %d padded", op, len(ra), len(rb))
		}
		want := make(map[uint64]uint64, len(rb))
		for _, g := range rb {
			want[g.Key] = g.Value
		}
		for _, g := range ra {
			if want[g.Key] != g.Value {
				t.Fatalf("op %v key %d: short %d, padded %d", op, g.Key, g.Value, want[g.Key])
			}
		}
	}
}

// TestAppendChunkConcurrentAccounting hammers concurrent producers on a
// multi-shard stream while the race detector watches; the row accounting
// at the end catches any chunk lost or double-counted between the
// producers, the shard queues and the seals.
func TestAppendChunkConcurrentAccounting(t *testing.T) {
	s := New(Config{Shards: 4, SealRows: 512})
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
				if err := s.AppendChunk(c); err != nil {
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
	err := s.AppendChunk(agg.Chunk{Keys: []uint64{1}, Vals: []uint64{1, 2}})
	if err == nil {
		t.Fatal("invalid chunk accepted")
	}
	if st := s.Stats(); st.Ingested != 0 {
		t.Fatalf("rejected chunk counted: ingested = %d", st.Ingested)
	}
}
