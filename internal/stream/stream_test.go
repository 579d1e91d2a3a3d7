package stream

import (
	"sync"
	"testing"
	"time"

	"memagg/internal/agg"
)

// TestBackpressureBlocksNotDrops is the bounded-queue contract: with a
// stalled shard and a full queue, Append BLOCKS — it neither returns an
// error nor drops rows — and unblocks as soon as the shard drains. Every
// appended row must be accounted for at the end.
func TestBackpressureBlocksNotDrops(t *testing.T) {
	gate := make(chan struct{})
	var stalled sync.Once
	entered := make(chan struct{})
	s := New(Config{
		Shards:   1,
		SealRows: 1 << 20, // never seal on size; only Flush seals
		testBatchHook: func() {
			stalled.Do(func() {
				close(entered)
				<-gate
			})
		},
	})

	keys := []uint64{1, 2, 3}
	vals := []uint64{10, 20, 30}

	// Batch 1 occupies the shard goroutine (the hook stalls it), the next
	// queueDepth batches fill the queue.
	if err := s.AppendChunk(agg.Chunk{Keys: keys, Vals: vals}); err != nil {
		t.Fatal(err)
	}
	<-entered
	for i := 0; i < queueDepth; i++ {
		if err := s.AppendChunk(agg.Chunk{Keys: keys, Vals: vals}); err != nil {
			t.Fatal(err)
		}
	}

	// One more batch has nowhere to go: Append must block.
	done := make(chan error, 1)
	go func() { done <- s.AppendChunk(agg.Chunk{Keys: keys, Vals: vals}) }()
	select {
	case err := <-done:
		t.Fatalf("Append returned (%v) with a full queue; want it to block", err)
	case <-time.After(50 * time.Millisecond):
	}

	// Drain the shard: the blocked Append must complete promptly.
	close(gate)
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Append still blocked after the shard drained")
	}

	// Nothing was dropped: after a flush every appended row is visible.
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	want := uint64((queueDepth + 2) * len(keys))
	if st.Ingested != want || st.Watermark != want {
		t.Fatalf("ingested/watermark = %d/%d want %d/%d", st.Ingested, st.Watermark, want, want)
	}
	var total uint64
	for _, g := range s.Snapshot().CountByKey() {
		total += g.Count
	}
	if total != want {
		t.Fatalf("rows visible to snapshot = %d want %d", total, want)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestWatermarkMonotonic hammers a small-seal stream with concurrent
// producers while a poller checks that the watermark never moves backwards
// (across seal installs AND merge installs) and never overtakes the
// ingested count.
func TestWatermarkMonotonic(t *testing.T) {
	s := New(Config{Shards: 2, SealRows: 256, MergeBits: 4})

	stop := make(chan struct{})
	var pollWG sync.WaitGroup
	pollWG.Add(1)
	go func() {
		defer pollWG.Done()
		var last uint64
		for {
			st := s.Stats()
			if st.Watermark < last {
				panic("watermark moved backwards")
			}
			if st.Watermark > st.Ingested {
				panic("watermark overtook ingested")
			}
			last = st.Watermark
			select {
			case <-stop:
				return
			default:
			}
		}
	}()

	const producers, batches, batchLen = 3, 40, 100
	var prodWG sync.WaitGroup
	for p := 0; p < producers; p++ {
		prodWG.Add(1)
		go func(p int) {
			defer prodWG.Done()
			for b := 0; b < batches; b++ {
				// Fresh columns per batch: the stream reads appended ones
				// in place.
				keys := make([]uint64, batchLen)
				vals := make([]uint64, batchLen)
				for i := range keys {
					keys[i] = uint64(p*batches*batchLen + b*batchLen + i)
					vals[i] = uint64(i)
				}
				if err := s.AppendChunk(agg.Chunk{Keys: keys, Vals: vals}); err != nil {
					t.Error(err)
					return
				}
			}
		}(p)
	}
	prodWG.Wait()
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	pollWG.Wait()

	want := uint64(producers * batches * batchLen)
	if st := s.Stats(); st.Watermark != want {
		t.Fatalf("watermark after flush = %d want %d", st.Watermark, want)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Close folds everything into one final generation.
	st := s.Stats()
	if st.SealedPending != 0 {
		t.Fatalf("sealed deltas after Close = %d want 0", st.SealedPending)
	}
	if st.Groups != int(want) {
		t.Fatalf("groups after Close = %d want %d (all keys distinct)", st.Groups, want)
	}
}

// TestClosedStream checks the Close contract: second Close, Append and
// Flush all return ErrClosed, while Snapshot/Stats keep serving.
func TestClosedStream(t *testing.T) {
	s := New(Config{Shards: 1})
	if err := s.AppendChunk(agg.Chunk{Keys: []uint64{7, 7, 9}, Vals: []uint64{1, 2, 3}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != ErrClosed {
		t.Fatalf("second Close = %v want ErrClosed", err)
	}
	if err := s.AppendChunk(agg.Chunk{Keys: []uint64{1}, Vals: []uint64{1}}); err != ErrClosed {
		t.Fatalf("Append after Close = %v want ErrClosed", err)
	}
	if err := s.Flush(); err != ErrClosed {
		t.Fatalf("Flush after Close = %v want ErrClosed", err)
	}
	sn := s.Snapshot()
	if sn.Watermark() != 3 || sn.Groups() != 2 {
		t.Fatalf("post-Close snapshot watermark/groups = %d/%d want 3/2", sn.Watermark(), sn.Groups())
	}
}

// TestAppendZeroExtendsVals mirrors the batch operators' short-vals
// convention: missing values aggregate as zero.
func TestAppendZeroExtendsVals(t *testing.T) {
	s := New(Config{Shards: 1})
	if err := s.AppendChunk(agg.Chunk{Keys: []uint64{5, 5, 5}, Vals: []uint64{4}}); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendChunk(agg.Chunk{Keys: nil, Vals: nil}); err != nil { // empty batch is a no-op
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	sn := s.Snapshot()
	rows := sn.Reduce(agg.OpSum)
	if len(rows) != 1 || rows[0].Key != 5 || rows[0].Value != 4 {
		t.Fatalf("sum rows = %+v want [{5 4}]", rows)
	}
	if sn.Count() != 3 {
		t.Fatalf("count = %d want 3", sn.Count())
	}
}

// TestHolisticDeltaOneArena: a sealed holistic delta keeps the value
// lists of all its partitions in one arena (an arena per partition would
// pin at least one 512 KiB chunk per touched partition), and that arena
// holds no more than the one-table delta the same rows would build.
func TestHolisticDeltaOneArena(t *testing.T) {
	keys, vals := snapshotTestData(200_000, 5000, 7)
	s := New(Config{Shards: 1, SealRows: 1 << 20, Holistic: true, DisableMerger: true})
	defer s.Close()
	if err := s.AppendChunk(agg.Chunk{Keys: keys, Vals: vals}); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	sealed := s.view.Load().sealed
	if len(sealed) != 1 {
		t.Fatalf("%d sealed deltas, want 1", len(sealed))
	}
	d := sealed[0]
	touched := 0
	if d.src.Parts == nil {
		t.Fatal("a shard's first delta is a run, want tables")
	}
	for q, p := range d.src.Parts {
		if p.T == nil {
			continue
		}
		touched++
		if p.Ar != d.ar {
			t.Fatalf("partition %d buffers its values outside the delta's arena", q)
		}
	}
	if touched < 2 {
		t.Fatalf("%d partitions touched, want several", touched)
	}
	ref := agg.NewTable(0)
	agg.AbsorbParts([]agg.Table{ref}, nil, nil, keys, vals, true)
	if got, want := d.ar.FootprintBytes(), ref.Ar.FootprintBytes(); got > want {
		t.Fatalf("holistic delta holds %d arena bytes, one table of the same rows %d", got, want)
	}
}
