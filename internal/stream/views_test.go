package stream

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"memagg/internal/agg"
	"memagg/internal/cview"
	"memagg/internal/dataset"
	"memagg/internal/obs"
	"memagg/internal/pairtest"
	"memagg/internal/wal"
)

// viewConfig is the deterministic continuous-view subject: one shard fed
// serially with a seal threshold past the dataset, so every Flush seals
// exactly the batches appended since the last one — seal boundaries are
// batch boundaries, and the test knows each pane's exact row range.
func viewConfig() Config {
	return Config{Shards: 1, SealRows: 1 << 20, MergeBits: 4, Holistic: true}
}

// viewFeed drives a stream one seal at a time and remembers each seal's
// end watermark, so tests can reconstruct any view's exact window rows.
type viewFeed struct {
	s          *Stream
	keys, vals []uint64
	fed        int
	ends       []uint64
}

func (f *viewFeed) seal(t *testing.T, n int) {
	t.Helper()
	if err := f.s.AppendChunk(agg.Chunk{Keys: f.keys[f.fed : f.fed+n], Vals: f.vals[f.fed : f.fed+n]}); err != nil {
		t.Fatal(err)
	}
	if err := f.s.Flush(); err != nil {
		t.Fatal(err)
	}
	f.fed += n
	f.ends = append(f.ends, uint64(f.fed))
}

// testFloor replicates the retention rule independently of cview: the
// lowest retained pane index while pane pIdx is current.
func testFloor(sp cview.Spec, pIdx uint64) uint64 {
	n := uint64(sp.Panes)
	if sp.Sliding {
		if pIdx >= n-1 {
			return pIdx - (n - 1)
		}
		return 0
	}
	return pIdx - pIdx%n
}

// windowRows reconstructs the rows a view's window covers from the seal
// history: the same pane arithmetic cview applies, computed independently.
func (f *viewFeed) windowRows(sp cview.Spec, startWM uint64) (wk, wv []uint64, wstart uint64) {
	tail := uint64(0)
	for _, end := range f.ends {
		if end > startWM {
			tail = end
		}
	}
	if tail == 0 {
		return nil, nil, startWM
	}
	floor := testFloor(sp, (tail-1)/sp.PaneRows)
	wstart = floor * sp.PaneRows
	if wstart < startWM {
		wstart = startWM
	}
	prev := uint64(0)
	for _, end := range f.ends {
		if end > startWM && (end-1)/sp.PaneRows >= floor {
			wk = append(wk, f.keys[prev:end]...)
			wv = append(wv, f.vals[prev:end]...)
		}
		prev = end
	}
	return wk, wv, wstart
}

// refValue runs q over a fresh volatile stream holding exactly the window
// rows — the batch recompute the view must match bit for bit.
func refValue(t *testing.T, q agg.Query, wk, wv []uint64) any {
	t.Helper()
	s := New(viewConfig())
	defer s.Close()
	if len(wk) > 0 {
		if err := s.AppendChunk(agg.Chunk{Keys: wk, Vals: wv}); err != nil {
			t.Fatal(err)
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	out, err := s.Snapshot().Run(q)
	if err != nil {
		t.Fatalf("reference %v: %v", q, err)
	}
	return out
}

// sortedValue key-sorts vector results in place so hash-order outputs
// compare with reflect.DeepEqual; scalars pass through.
func sortedValue(v any) any {
	switch vv := v.(type) {
	case []agg.GroupCount:
		return sortedQ1(vv)
	case []agg.GroupFloat:
		return sortedQF(vv)
	case []agg.GroupUint:
		return sortedQU(vv)
	}
	return v
}

func equivQueries() []agg.Query {
	return []agg.Query{
		{ID: agg.QCountByKey},
		{ID: agg.QAvgByKey},
		{ID: agg.QMedianByKey},
		{ID: agg.QCount},
		{ID: agg.QAvg},
		{ID: agg.QMedian},
		{ID: agg.QRange, Lo: 20, Hi: 200},
		{ID: agg.QReduce, Op: agg.OpSum},
		{ID: agg.QReduce, Op: agg.OpMin},
		{ID: agg.QReduce, Op: agg.OpMax},
		{ID: agg.QQuantile, P: 0.9},
		{ID: agg.QMode},
	}
}

// TestCViewBatchEquivalence is the window-vs-batch gate: for every query
// × window shape, after every phase of ingest, the view's incrementally
// maintained result must reflect.DeepEqual the batch recompute over
// exactly the rows its window covers — holistic quantile and mode
// included. Batch sizes both cross pane boundaries and land exactly on
// them. It runs at viewConfig's MergeBits and past maxDeltaBits, where
// every delta is a run finer than the panes it folds into.
func TestCViewBatchEquivalence(t *testing.T) {
	for _, bits := range []int{viewConfig().MergeBits, 9} {
		cfg := viewConfig()
		cfg.MergeBits = bits
		testCViewBatchEquivalence(t, cfg)
	}
}

func testCViewBatchEquivalence(t *testing.T, cfg Config) {
	windows := []struct {
		paneRows uint64
		panes    int
		sliding  bool
	}{
		{500, 4, true},
		{500, 4, false},
		{777, 3, true},
		{250, 2, false},
	}
	spec := dataset.Spec{Kind: dataset.Zipf, N: 6_000, Cardinality: 300, Seed: 81}
	keys := spec.Keys()
	vals := dataset.Values(len(keys), spec.Seed)

	s := New(cfg)
	defer s.Close()
	queries := equivQueries()
	specs := make([]cview.Spec, 0, len(windows)*len(queries))
	for wi, w := range windows {
		for qi, q := range queries {
			sp := cview.Spec{
				Name:     fmt.Sprintf("w%d-q%d", wi, qi),
				Query:    q,
				PaneRows: w.paneRows,
				Panes:    w.panes,
				Sliding:  w.sliding,
			}
			if err := s.RegisterView(sp); err != nil {
				t.Fatal(err)
			}
			specs = append(specs, sp)
		}
	}

	feed := &viewFeed{s: s, keys: keys, vals: vals}
	verify := func(phase string) {
		t.Helper()
		for _, sp := range specs {
			res, err := s.ViewResult(sp.Name)
			if err != nil {
				t.Fatal(err)
			}
			wk, wv, wstart := feed.windowRows(sp, 0)
			if res.WindowStart != wstart || res.Rows != uint64(len(wk)) {
				t.Fatalf("%s %s: window (%d, %d] rows %d, want start %d rows %d",
					phase, sp.Name, res.WindowStart, res.WindowEnd, res.Rows, wstart, len(wk))
			}
			want := refValue(t, sp.Query, wk, wv)
			if !reflect.DeepEqual(sortedValue(res.Value), sortedValue(want)) {
				t.Fatalf("%s %s (%s over %d rows): view %v, batch %v",
					phase, sp.Name, sp.Query, len(wk), res.Value, want)
			}
		}
	}

	// Mixed seal sizes: exact pane multiples (500, 250, 1000), boundary
	// stragglers, and sizes that span panes outright.
	sizes := []int{500, 250, 250, 300, 777, 123, 500, 1000, 57, 443, 250}
	for i, n := range sizes {
		if feed.fed+n > len(keys) {
			break
		}
		feed.seal(t, n)
		if i == 4 {
			verify(fmt.Sprintf("MergeBits=%d mid", cfg.MergeBits))
		}
	}
	verify(fmt.Sprintf("MergeBits=%d final", cfg.MergeBits))
}

// TestCViewPaneBoundary pins the boundary rule: a seal ending exactly at
// watermark (p+1)*PaneRows belongs to pane p — it completes the pane, it
// does not open the next one.
func TestCViewPaneBoundary(t *testing.T) {
	spec := dataset.Spec{Kind: dataset.RseqShf, N: 600, Cardinality: 37, Seed: 82}
	keys := spec.Keys()
	vals := dataset.Values(len(keys), spec.Seed)

	s := New(viewConfig())
	defer s.Close()
	if err := s.RegisterView(cview.Spec{Name: "slide", Query: agg.Query{ID: agg.QCount},
		PaneRows: 100, Panes: 2, Sliding: true}); err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterView(cview.Spec{Name: "tumble", Query: agg.Query{ID: agg.QCount},
		PaneRows: 100, Panes: 1}); err != nil {
		t.Fatal(err)
	}
	feed := &viewFeed{s: s, keys: keys, vals: vals}

	check := func(name string, panesLive int, rows, wstart uint64) {
		t.Helper()
		res, err := s.ViewResult(name)
		if err != nil {
			t.Fatal(err)
		}
		if res.PanesLive != panesLive || res.Rows != rows || res.WindowStart != wstart {
			t.Fatalf("%s: panes %d rows %d start %d, want %d/%d/%d",
				name, res.PanesLive, res.Rows, res.WindowStart, panesLive, rows, wstart)
		}
	}

	feed.seal(t, 100) // end 100 → pane (100-1)/100 = 0: boundary seal stays in pane 0
	check("slide", 1, 100, 0)
	check("tumble", 1, 100, 0)

	feed.seal(t, 100)            // end 200 → pane 1
	check("slide", 2, 200, 0)    // sliding keeps panes {0,1}
	check("tumble", 1, 100, 100) // 1-pane tumble drops pane 0 whole

	feed.seal(t, 100) // end 300 → pane 2
	check("slide", 2, 200, 100)
	check("tumble", 1, 100, 200)

	info, err := s.ViewInfo("tumble")
	if err != nil {
		t.Fatal(err)
	}
	if info.PanesEvicted != 2 {
		t.Fatalf("tumble evicted %d panes, want 2", info.PanesEvicted)
	}
}

// TestCViewRegisterMidIngest: a view registered after rows have sealed
// starts at the registration watermark — none of the earlier rows leak in
// (no double counting), and its first window matches the batch recompute
// over only the rows sealed after registration.
func TestCViewRegisterMidIngest(t *testing.T) {
	spec := dataset.Spec{Kind: dataset.Zipf, N: 1_200, Cardinality: 64, Seed: 83}
	keys := spec.Keys()
	vals := dataset.Values(len(keys), spec.Seed)

	s := New(viewConfig())
	defer s.Close()
	feed := &viewFeed{s: s, keys: keys, vals: vals}
	feed.seal(t, 500)

	sp := cview.Spec{Name: "late", Query: agg.Query{ID: agg.QCountByKey},
		PaneRows: 10_000, Panes: 1}
	if err := s.RegisterView(sp); err != nil {
		t.Fatal(err)
	}
	startWM := uint64(feed.fed)

	feed.seal(t, 300)
	feed.seal(t, 400)
	res, err := s.ViewResult("late")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows != 700 || res.WindowStart != startWM {
		t.Fatalf("window (%d, %d] rows %d, want (%d, %d] rows 700",
			res.WindowStart, res.WindowEnd, res.Rows, startWM, len(keys))
	}
	wk, wv, _ := feed.windowRows(sp, startWM)
	want := refValue(t, sp.Query, wk, wv)
	if !reflect.DeepEqual(sortedValue(res.Value), sortedValue(want)) {
		t.Fatalf("mid-ingest view diverged from batch over post-registration rows")
	}
	info, err := s.ViewInfo("late")
	if err != nil {
		t.Fatal(err)
	}
	if info.StartWatermark != startWM {
		t.Fatalf("StartWatermark = %d, want %d", info.StartWatermark, startWM)
	}
}

// TestCViewEvictionRace runs sliding-window reads, listings and stats
// concurrently with ingest that continually opens and evicts panes; the
// race detector checks the locking, the body checks every read is
// internally consistent (Q1 counts sum to the window row count).
func TestCViewEvictionRace(t *testing.T) {
	s := New(Config{Shards: 1, SealRows: 1 << 20, MergeBits: 4})
	defer s.Close()
	if err := s.RegisterView(cview.Spec{Name: "race", Query: agg.Query{ID: agg.QCountByKey},
		PaneRows: 200, Panes: 2, Sliding: true}); err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterView(cview.Spec{Name: "race-t", Query: agg.Query{ID: agg.QCount},
		PaneRows: 300, Panes: 3}); err != nil {
		t.Fatal(err)
	}

	spec := dataset.Spec{Kind: dataset.RseqShf, N: 40_000, Cardinality: 500, Seed: 84}
	keys := spec.Keys()
	vals := dataset.Values(len(keys), spec.Seed)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				res, err := s.ViewResult("race")
				if err != nil {
					t.Error(err)
					return
				}
				var total uint64
				for _, g := range res.Value.([]agg.GroupCount) {
					total += g.Count
				}
				if total != res.Rows || res.WindowEnd < res.WindowStart {
					t.Errorf("inconsistent read: rows %d counted %d window (%d, %d]",
						res.Rows, total, res.WindowStart, res.WindowEnd)
					return
				}
				s.Views()
				s.Stats()
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
	}

	for off := 0; off < len(keys); off += 100 {
		end := off + 100
		if err := s.AppendChunk(agg.Chunk{Keys: keys[off:end], Vals: vals[off:end]}); err != nil {
			t.Fatal(err)
		}
		if err := s.Flush(); err != nil { // one seal per batch: panes churn
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	info, err := s.ViewInfo("race")
	if err != nil {
		t.Fatal(err)
	}
	if info.PanesEvicted == 0 {
		t.Fatal("race ran without a single eviction — the test exercised nothing")
	}
}

// TestCViewRestartReplay proves view state survives both death modes of a
// durable stream. Hard kill (no Close, no pane snapshot): views rebuild
// from DEFS plus full WAL replay through the same fold path as live
// ingest. Graceful close: the final checkpoint truncates the WAL, so the
// reopened views must come back from the PANES snapshot instead.
func TestCViewRestartReplay(t *testing.T) {
	keys, vals := gateData()
	specs := []cview.Spec{
		{Name: "counts", Query: agg.Query{ID: agg.QCountByKey}, PaneRows: 600, Panes: 3, Sliding: true},
		{Name: "p90", Query: agg.Query{ID: agg.QQuantile, P: 0.9}, PaneRows: 500, Panes: 2},
	}
	run := func(t *testing.T, ckptEvery int, graceful bool) {
		mem := wal.NewMemFS()
		efs := wal.NewErrFS(mem)
		s, err := Open(durableConfig(efs, ckptEvery))
		if err != nil {
			t.Fatal(err)
		}
		for _, sp := range specs {
			if err := s.RegisterView(sp); err != nil {
				t.Fatal(err)
			}
		}
		if err := ingestUntilError(s, keys, vals); err != nil {
			t.Fatal(err)
		}
		before := make(map[string]*cview.Result, len(specs))
		for _, sp := range specs {
			res, err := s.ViewResult(sp.Name)
			if err != nil {
				t.Fatal(err)
			}
			before[sp.Name] = res
		}
		if graceful {
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if s.Stats().CheckpointWatermark != uint64(len(keys)) {
				t.Fatal("graceful close did not checkpoint everything")
			}
		} else {
			// Hard kill: cut the FS so nothing else reaches storage, then
			// Close only to stop the goroutines — sync=always means every
			// seal is already in the log, and the cut swallows the shutdown
			// checkpoint and pane snapshot exactly like a kill would.
			efs.Cut()
			_ = s.Close()
		}

		s2, err := Open(durableConfig(mem, ckptEvery))
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer s2.Close()
		views := s2.Views()
		if len(views) != len(specs) {
			t.Fatalf("recovered %d views, want %d", len(views), len(specs))
		}
		for _, sp := range specs {
			res, err := s2.ViewResult(sp.Name)
			if err != nil {
				t.Fatal(err)
			}
			want := before[sp.Name]
			if res.Truncated {
				t.Fatalf("%s: recovered view reports Truncated", sp.Name)
			}
			if res.WindowStart != want.WindowStart || res.WindowEnd != want.WindowEnd ||
				res.Rows != want.Rows || res.Groups != want.Groups {
				t.Fatalf("%s: recovered window (%d, %d] rows %d groups %d, want (%d, %d] rows %d groups %d",
					sp.Name, res.WindowStart, res.WindowEnd, res.Rows, res.Groups,
					want.WindowStart, want.WindowEnd, want.Rows, want.Groups)
			}
			if !reflect.DeepEqual(sortedValue(res.Value), sortedValue(want.Value)) {
				t.Fatalf("%s: recovered result diverged from pre-restart result", sp.Name)
			}
		}
	}
	t.Run("kill-wal-replay", func(t *testing.T) { run(t, -1, false) })
	t.Run("kill-with-checkpoints", func(t *testing.T) { run(t, 3000, false) })
	t.Run("graceful-panes-snapshot", func(t *testing.T) { run(t, 3000, true) })
}

// TestCViewDefinitionsPersist: a Register/Drop pair alone (no pane state,
// no ingest) must survive a restart — DEFS is the authority.
func TestCViewDefinitionsPersist(t *testing.T) {
	fs := wal.NewMemFS()
	s, err := Open(durableConfig(fs, -1))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"keep", "drop"} {
		if err := s.RegisterView(cview.Spec{Name: name, Query: agg.Query{ID: agg.QCount},
			PaneRows: 100, Panes: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if !s.DropView("drop") {
		t.Fatal("DropView(drop) = false")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(durableConfig(fs, -1))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	views := s2.Views()
	if len(views) != 1 || views[0].Name != "keep" {
		t.Fatalf("recovered views %+v, want exactly [keep]", views)
	}
}

// ingestWithViews is the overhead-guard workload: a full ingest run with
// seals happening (unlike the obs guard, the per-seal view fold is
// exactly what's being priced), with or without 4 registered views.
func ingestWithViews(tb testing.TB, keys, vals []uint64, views bool) time.Duration {
	s := New(Config{Shards: 1, SealRows: 1 << 14, MergeBits: 6})
	defer func() {
		if err := s.Close(); err != nil {
			tb.Fatal(err)
		}
	}()
	if views {
		for i, q := range []agg.Query{
			{ID: agg.QCountByKey},
			{ID: agg.QReduce, Op: agg.OpSum},
			{ID: agg.QAvgByKey},
			{ID: agg.QCount},
		} {
			if err := s.RegisterView(cview.Spec{Name: fmt.Sprintf("g%d", i), Query: q,
				PaneRows: 1 << 15, Panes: 4, Sliding: true}); err != nil {
				tb.Fatal(err)
			}
		}
	}
	const batchLen = 4096
	start := time.Now()
	for i := 0; i < len(keys); i += batchLen {
		j := i + batchLen
		if j > len(keys) {
			j = len(keys)
		}
		if err := s.AppendChunk(agg.Chunk{Keys: keys[i:j], Vals: vals[i:j]}); err != nil {
			tb.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		tb.Fatal(err)
	}
	return time.Since(start)
}

// TestCViewOverheadGuard prices the seal-path hook: ingest with 4
// registered distributive views must stay within 10% of the same ingest
// with none. The per-seal fold is O(delta groups), amortized over
// SealRows rows — the budget holds with plenty of slack; wall-clock
// ratios are noisy, so the guard runs only under pairtest.Gate like the
// other guards.
func TestCViewOverheadGuard(t *testing.T) {
	pairtest.Gate(t)
	spec := dataset.Spec{Kind: dataset.RseqShf, N: 1_000_000, Cardinality: 512, Seed: 85}
	keys := spec.Keys()
	vals := dataset.Values(len(keys), spec.Seed)

	obs.SetDisabled(false)
	ingest := func(views bool) func() time.Duration {
		return func() time.Duration { return ingestWithViews(t, keys, vals, views) }
	}
	pairtest.Run(t, 1.10, ingest(true), ingest(false))
}

// TestCViewStats checks the view families surface through Stats.
func TestCViewStats(t *testing.T) {
	s := New(viewConfig())
	defer s.Close()
	if err := s.RegisterView(cview.Spec{Name: "st", Query: agg.Query{ID: agg.QCount},
		PaneRows: 100, Panes: 2, Sliding: true}); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(86))
	keys := make([]uint64, 500)
	for i := range keys {
		keys[i] = rng.Uint64() % 32
	}
	if err := s.AppendChunk(agg.Chunk{Keys: keys, Vals: keys}); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ViewResult("st"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ViewResult("st"); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Views != 1 || st.ViewPanesLive == 0 || st.ViewUpdates == 0 {
		t.Fatalf("stats missing view families: %+v", st)
	}
	if st.ViewReads != 2 {
		t.Fatalf("reads=%d, want 2", st.ViewReads)
	}
}

// TestCViewUpdateLatencyRecorded: a view read that settles pending folds
// records one memagg_cview_update_seconds sample per settled pane, and a
// read with nothing pending records none.
func TestCViewUpdateLatencyRecorded(t *testing.T) {
	s := New(viewConfig())
	defer s.Close()
	if err := s.RegisterView(cview.Spec{Name: "lat", Query: agg.Query{ID: agg.QCount},
		PaneRows: 1 << 20, Panes: 1}); err != nil {
		t.Fatal(err)
	}
	keys := make([]uint64, 300)
	for i := range keys {
		keys[i] = uint64(i % 17)
	}
	if err := s.AppendChunk(agg.Chunk{Keys: keys, Vals: keys}); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if n := s.m.cviewUpdateLat.Snapshot().Count; n != 0 {
		t.Fatalf("%d update samples before any read settled a fold", n)
	}
	if _, err := s.ViewResult("lat"); err != nil {
		t.Fatal(err)
	}
	if n := s.m.cviewUpdateLat.Snapshot().Count; n != 1 {
		t.Fatalf("%d update samples after the settling read, want 1", n)
	}
	if _, err := s.ViewResult("lat"); err != nil {
		t.Fatal(err)
	}
	if n := s.m.cviewUpdateLat.Snapshot().Count; n != 1 {
		t.Fatalf("%d update samples after a read with nothing pending, want 1", n)
	}
}
