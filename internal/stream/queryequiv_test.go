package stream

import (
	"reflect"
	"sync"
	"testing"

	"memagg/internal/agg"
	"memagg/internal/cview"
	"memagg/internal/dataset"
)

// layeredStream builds a deterministic base + sealed-delta layering: one
// writer shard fed serially (delta content and iteration order are then a
// pure function of the input), merger disabled so the layering cannot
// shift underneath the test. The first baseRows rows are sealed and
// explicitly compacted into a base generation; the rest stay as sealed
// deltas of cfg.SealRows each. Two calls with the same cfg knobs and data
// produce views with identical tables in identical order, so query
// results can be compared bit for bit across query configurations.
func layeredStream(tb testing.TB, cfg Config, keys, vals []uint64, baseRows int) *Stream {
	tb.Helper()
	cfg.Shards = 1
	cfg.DisableMerger = true
	s := New(cfg)
	appendAll := func(lo, hi int) {
		const batchLen = 1000
		for off := lo; off < hi; off += batchLen {
			end := off + batchLen
			if end > hi {
				end = hi
			}
			if err := s.AppendChunk(agg.Chunk{Keys: keys[off:end], Vals: vals[off:end]}, false); err != nil {
				tb.Fatal(err)
			}
		}
		if err := s.Flush(); err != nil {
			tb.Fatal(err)
		}
	}
	if baseRows > len(keys) {
		baseRows = len(keys)
	}
	if baseRows > 0 {
		appendAll(0, baseRows)
		s.MergeNow()
	}
	if baseRows < len(keys) {
		appendAll(baseRows, len(keys))
	}
	return s
}

// snapshotResults is every Q1–Q7 result (plus the extended reduce and
// holistic forms) over one snapshot, for whole-struct comparison.
type snapshotResults struct {
	Watermark uint64
	Groups    int
	Q1        []agg.GroupCount
	Q2        []agg.GroupFloat
	Sum       []agg.GroupUint
	Min       []agg.GroupUint
	Max       []agg.GroupUint
	Q3        []agg.GroupFloat
	P90       []agg.GroupFloat
	Mode      []agg.GroupFloat
	Q4        uint64
	Q5        float64
	Q6        float64
	Q7Mid     []agg.GroupCount
	Q7Full    []agg.GroupCount
}

func queryAll(tb testing.TB, sn *Snapshot, lo, hi uint64) snapshotResults {
	tb.Helper()
	r := snapshotResults{
		Watermark: sn.Watermark(),
		Groups:    sn.Groups(),
		Q1:        sn.CountByKey(),
		Q2:        sn.AvgByKey(),
		Sum:       sn.Reduce(agg.OpSum),
		Min:       sn.Reduce(agg.OpMin),
		Max:       sn.Reduce(agg.OpMax),
		Q4:        sn.Count(),
		Q5:        sn.Avg(),
	}
	var err error
	if r.Q3, err = sn.MedianByKey(); err != nil {
		tb.Fatal(err)
	}
	if r.P90, err = sn.QuantileByKey(0.9); err != nil {
		tb.Fatal(err)
	}
	if r.Mode, err = sn.ModeByKey(); err != nil {
		tb.Fatal(err)
	}
	if r.Q6, err = sn.Median(); err != nil {
		tb.Fatal(err)
	}
	if r.Q7Mid, err = sn.CountRange(lo, hi); err != nil {
		tb.Fatal(err)
	}
	if r.Q7Full, err = sn.CountRange(0, ^uint64(0)); err != nil {
		tb.Fatal(err)
	}
	return r
}

// TestQueryParallelSerialEquivalence is the parallel-vs-serial gate: the
// same deterministic view layering queried at worker counts 1/2/8 and
// with the serial cutoff forced both ways must produce results
// bit-identical to the maximally serial configuration — including row
// order, since the partition-wise fold and the offset-writing kernels are
// deterministic for a fixed view. Caching is disabled so every
// configuration computes its own results.
func TestQueryParallelSerialEquivalence(t *testing.T) {
	defer func(c int) { agg.SerialQueryCutoff = c }(agg.SerialQueryCutoff)

	specs := []dataset.Spec{
		{Kind: dataset.RseqShf, N: 90_000, Cardinality: 25_000, Seed: 91},
		{Kind: dataset.Zipf, N: 60_000, Cardinality: 4_000, Seed: 92},
		{Kind: dataset.HhitShf, N: 40_000, Cardinality: 3_000, Seed: 93},
	}
	for _, spec := range specs {
		keys := spec.Keys()
		vals := dataset.Values(len(keys), spec.Seed)
		lo := uint64(0)
		hi := ^uint64(0) / 2 // roughly half the hashed key domain
		cfg := Config{SealRows: 1 << 13, MergeBits: 5, Holistic: true,
			QueryCacheEntries: -1, QueryWorkers: 1}

		// Reference: one worker, cutoff above any group count — every
		// kernel takes the serial path over the same folded sources.
		agg.SerialQueryCutoff = 1 << 30
		ref := layeredStream(t, cfg, keys, vals, len(keys)/2)
		want := queryAll(t, ref.Snapshot(), lo, hi)
		if err := ref.Close(); err != nil {
			t.Fatal(err)
		}
		if want.Q4 != uint64(len(keys)) {
			t.Fatalf("%v: reference watermark %d, want %d", spec, want.Q4, len(keys))
		}

		for _, workers := range []int{1, 2, 8} {
			for _, cutoff := range []int{0, 1 << 30} {
				cfg.QueryWorkers = workers
				agg.SerialQueryCutoff = cutoff
				s := layeredStream(t, cfg, keys, vals, len(keys)/2)
				got := queryAll(t, s.Snapshot(), lo, hi)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%v: workers=%d cutoff=%d: results differ from serial reference",
						spec, workers, cutoff)
				}
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// TestViewParallelSerialEquivalence is the same gate for continuous-view
// reads: a window of several live panes is folded partition-wise and
// scanned at the stream's query parallelism, so reading q1, q2, q6 and
// quantile views at worker counts 1/2/8 with the serial cutoff forced both
// ways must give results identical to the maximally serial configuration,
// row order included — unsorted, the contract snapshots have.
func TestViewParallelSerialEquivalence(t *testing.T) {
	defer func(c int) { agg.SerialQueryCutoff = c }(agg.SerialQueryCutoff)

	spec := dataset.Spec{Kind: dataset.RseqShf, N: 60_000, Cardinality: 20_000, Seed: 97}
	keys := spec.Keys()
	vals := dataset.Values(len(keys), spec.Seed)
	views := []cview.Spec{
		{Name: "q1", Query: agg.Query{ID: agg.QCountByKey}, PaneRows: 8000, Panes: 4, Sliding: true},
		{Name: "q2", Query: agg.Query{ID: agg.QAvgByKey}, PaneRows: 8000, Panes: 4},
		{Name: "q6", Query: agg.Query{ID: agg.QMedian}, PaneRows: 8000, Panes: 4, Sliding: true},
		{Name: "p90", Query: agg.Query{ID: agg.QQuantile, P: 0.9}, PaneRows: 8000, Panes: 4},
	}
	read := func(workers, cutoff int) []*cview.Result {
		agg.SerialQueryCutoff = cutoff
		cfg := viewConfig()
		cfg.MergeBits = 5
		cfg.QueryWorkers = workers
		s := New(cfg)
		defer s.Close()
		for _, sp := range views {
			if err := s.RegisterView(sp); err != nil {
				t.Fatal(err)
			}
		}
		feed := &viewFeed{s: s, keys: keys, vals: vals}
		for feed.fed+3000 <= len(keys) {
			feed.seal(t, 3000)
		}
		out := make([]*cview.Result, len(views))
		for i, sp := range views {
			res, err := s.ViewResult(sp.Name)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = res
		}
		return out
	}

	want := read(1, 1<<30)
	for _, res := range want {
		if res.PanesLive < 2 || res.Groups < 8192 {
			t.Fatalf("%s: %d panes, %d groups: the window must fold several panes above the default cutoff",
				res.Name, res.PanesLive, res.Groups)
		}
	}
	for _, workers := range []int{1, 2, 8} {
		for _, cutoff := range []int{0, 1 << 30} {
			got := read(workers, cutoff)
			for i := range want {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Errorf("view %s: workers=%d cutoff=%d: result differs from serial reference",
						want[i].Name, workers, cutoff)
				}
			}
		}
	}
}

// TestQueryDeterministicAcrossSnapshots checks the other identity the
// cache relies on: two snapshots of one view share the fold and produce
// identical results (same rows, same order) whether or not the cache is
// on, and repeated queries on one snapshot are stable.
func TestQueryDeterministicAcrossSnapshots(t *testing.T) {
	spec := dataset.Spec{Kind: dataset.RseqShf, N: 50_000, Cardinality: 12_000, Seed: 94}
	keys := spec.Keys()
	vals := dataset.Values(len(keys), spec.Seed)
	for _, cacheEntries := range []int{-1, 0} {
		s := layeredStream(t, Config{SealRows: 1 << 12, MergeBits: 5, Holistic: true,
			QueryCacheEntries: cacheEntries}, keys, vals, len(keys)/3)
		a := queryAll(t, s.Snapshot(), 10, 1<<60)
		b := queryAll(t, s.Snapshot(), 10, 1<<60)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("cache=%d: two snapshots of one view disagree", cacheEntries)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestQueryConcurrentSnapshots hammers one live stream with concurrent
// snapshot queries while ingest and merging run — the race-detector
// coverage for the parallel fold (view single-flight), the partition
// scans, and the result cache. Every observed snapshot must be internally
// consistent: Q1 row total == Q4 == watermark.
func TestQueryConcurrentSnapshots(t *testing.T) {
	spec := dataset.Spec{Kind: dataset.RseqShf, N: 60_000, Cardinality: 15_000, Seed: 95}
	keys := spec.Keys()
	vals := dataset.Values(len(keys), spec.Seed)
	s := New(Config{Shards: 2, SealRows: 1 << 11, MergeBits: 5, Holistic: true, QueryWorkers: 4})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				sn := s.Snapshot()
				var total uint64
				for _, r := range sn.CountByKey() {
					total += r.Count
				}
				if total != sn.Count() {
					panic("Q1 total != Q4")
				}
				if _, err := sn.Median(); err != nil {
					panic(err)
				}
				if _, err := sn.CountRange(1<<10, 1<<62); err != nil {
					panic(err)
				}
				sn.Avg()
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
	}
	const batchLen = 977
	for off := 0; off < len(keys); off += batchLen {
		end := off + batchLen
		if end > len(keys) {
			end = len(keys)
		}
		if err := s.AppendChunk(agg.Chunk{Keys: keys[off:end], Vals: vals[off:end]}, false); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	sn := s.Snapshot()
	if sn.Watermark() != uint64(len(keys)) {
		t.Fatalf("final watermark %d, want %d", sn.Watermark(), len(keys))
	}
}

// TestQ4DoesNotFold: Q4 through the dispatcher is the watermark itself —
// it must not force the delta fold the scanning queries need (right after
// a recovery that fold is seconds of work a liveness check would pay).
func TestQ4DoesNotFold(t *testing.T) {
	spec := dataset.Spec{Kind: dataset.RseqShf, N: 20_000, Cardinality: 5_000, Seed: 96}
	keys := spec.Keys()
	s := layeredStream(t, Config{SealRows: 1 << 11, MergeBits: 4}, keys, dataset.Values(len(keys), spec.Seed), len(keys)/2)
	defer s.Close()
	sn := s.Snapshot()
	if v, err := sn.Run(agg.Query{ID: agg.QCount}); err != nil || v != uint64(len(keys)) {
		t.Fatalf("q4 = %v, %v; want %d", v, err, len(keys))
	}
	if n := s.m.queryFoldLat.Count(); n != 0 {
		t.Fatalf("q4 folded the view's deltas (%d folds)", n)
	}
	if _, err := sn.Run(agg.Query{ID: agg.QCountByKey}); err != nil {
		t.Fatal(err)
	}
	if n := s.m.queryFoldLat.Count(); n != 1 {
		t.Fatalf("q1 over sealed deltas recorded %d folds, want 1", n)
	}
}
