package memagg

import (
	"errors"
	"sync"
	"testing"
)

// The error taxonomy must both keep its byte-exact messages (callers match
// on them today) and classify via errors.Is/As.
func TestTypedErrors(t *testing.T) {
	if _, err := New("nope", Options{}); !errors.Is(err, ErrUnknownBackend) {
		t.Fatalf("New(nope) err = %v; want ErrUnknownBackend", err)
	} else if got, want := err.Error(), `memagg: unknown backend "nope"`; got != want {
		t.Fatalf("New(nope) message = %q; want %q", got, want)
	}

	if _, err := New(HashLP, Options{Allocator: "slab"}); !errors.Is(err, ErrUnknownAllocator) {
		t.Fatalf("New(bad allocator) err = %v; want ErrUnknownAllocator", err)
	} else if got, want := err.Error(), `memagg: unknown allocator "slab"`; got != want {
		t.Fatalf("allocator message = %q; want %q", got, want)
	}

	// NewIndex on a non-tree backend is also an unknown-backend failure.
	if _, err := NewIndex(HashLP); !errors.Is(err, ErrUnknownBackend) {
		t.Fatalf("NewIndex(Hash_LP) err = %v; want ErrUnknownBackend", err)
	}

	// A distributive backend cannot answer Median: the failure carries the
	// sentinel plus the backend/query context.
	a, err := New(HashLP, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = a.Median([]uint64{1, 2, 3})
	if !errors.Is(err, ErrUnsupportedQuery) {
		t.Fatalf("Median err = %v; want ErrUnsupportedQuery", err)
	}
	var qe *QueryError
	if !errors.As(err, &qe) {
		t.Fatalf("Median err = %T; want *QueryError", err)
	}
	if qe.Backend != HashLP || qe.Query != "Median" {
		t.Fatalf("QueryError = %+v; want backend Hash_LP, query Median", qe)
	}
}

func TestStreamCloseIdempotent(t *testing.T) {
	s := NewStream(StreamOptions{Shards: 2, SealRows: 8})
	if err := s.Close(); err != nil {
		t.Fatalf("first Close = %v", err)
	}
	if err := s.Close(); !errors.Is(err, ErrClosed) {
		t.Fatalf("second Close = %v; want ErrClosed", err)
	}
	if err := s.AppendChunk(Chunk{Keys: []uint64{1}, Vals: []uint64{1}}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Append after Close = %v; want ErrClosed", err)
	}
}

// Concurrent Close racing Append must never panic; each Append either
// lands or reports ErrClosed.
func TestStreamCloseDuringAppends(t *testing.T) {
	s := NewStream(StreamOptions{Shards: 2, SealRows: 16})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			keys := []uint64{1, 2, 3, 4}
			vals := []uint64{1, 1, 1, 1}
			for i := 0; i < 500; i++ {
				if err := s.AppendChunk(Chunk{Keys: keys, Vals: vals}); err != nil {
					if !errors.Is(err, ErrClosed) {
						t.Errorf("Append = %v", err)
					}
					return
				}
			}
		}()
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close = %v", err)
	}
	wg.Wait()
}

func TestAggregatorAndProcessStats(t *testing.T) {
	a, err := New(HashLP, Options{})
	if err != nil {
		t.Fatal(err)
	}
	a.CountByKey([]uint64{1, 2, 2, 3})

	st := a.Stats()
	if st.Backend != HashLP {
		t.Fatalf("Stats().Backend = %v", st.Backend)
	}
	var build bool
	for _, p := range st.Phases {
		if p.Engine != "Hash_LP" {
			t.Fatalf("foreign engine %q in backend stats", p.Engine)
		}
		if p.Phase == "build" && p.Count > 0 && p.TotalNanos > 0 {
			build = true
		}
	}
	if !build {
		t.Fatalf("no recorded build phase for Hash_LP: %+v", st.Phases)
	}

	ps := Stats()
	if ps.TimingDisabled {
		t.Fatal("timing reported disabled in default configuration")
	}
	found := false
	for _, p := range ps.EnginePhases {
		if p.Engine == "Hash_LP" && p.Phase == "build" {
			found = true
		}
	}
	if !found {
		t.Fatalf("process stats missing Hash_LP build: %+v", ps.EnginePhases)
	}
}

func TestStreamMetrics(t *testing.T) {
	s := NewStream(StreamOptions{Shards: 2, SealRows: 4})
	defer s.Close()
	for i := 0; i < 3; i++ {
		if err := s.AppendChunk(Chunk{Keys: []uint64{1, 2, 3, 4}, Vals: []uint64{1, 1, 1, 1}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	m := s.Metrics()
	if m.Ingested != 12 || m.Batches != 3 || m.Watermark != 12 {
		t.Fatalf("metrics counters = ingested %d batches %d watermark %d; want 12, 3, 12",
			m.Ingested, m.Batches, m.Watermark)
	}
	if m.AppendLatency.Count != 3 {
		t.Fatalf("AppendLatency.Count = %d; want 3", m.AppendLatency.Count)
	}
	var sum uint64
	for _, b := range m.AppendLatency.Buckets {
		sum += b.Count
	}
	if sum != m.AppendLatency.Count {
		t.Fatalf("bucket counts sum to %d; histogram count %d", sum, m.AppendLatency.Count)
	}
	if s.MetricsRegistry() == nil {
		t.Fatal("MetricsRegistry() = nil")
	}
}
