package cview

import (
	"errors"
	"reflect"
	"sort"
	"testing"

	"memagg/internal/agg"
	"memagg/internal/arena"
	"memagg/internal/wal"
)

// deltaOf builds the partition set a seal of the given rows would
// supply, value multisets included (views that need none merge without
// them).
func deltaOf(keys, vals []uint64) []agg.Table {
	parts := make([]agg.Table, 1<<2)
	agg.AbsorbParts(parts, arena.New(), nil, keys, vals, true, 1)
	return parts
}

// seal feeds one synthetic sealed delta covering (prev, prev+len(keys)].
func seal(r *Registry, prev uint64, keys, vals []uint64) uint64 {
	end := prev + uint64(len(keys))
	r.OnSeal(prev, end, uint64(len(keys)), deltaOf(keys, vals))
	return end
}

// rows builds n rows cycling over card keys with value = row index.
func rows(start, n int, card uint64) (keys, vals []uint64) {
	keys = make([]uint64, n)
	vals = make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(start+i) % card
		vals[i] = uint64(start + i)
	}
	return keys, vals
}

func sortValue(v any) any {
	switch vv := v.(type) {
	case []agg.GroupCount:
		sort.Slice(vv, func(i, j int) bool { return vv[i].Key < vv[j].Key })
	case []agg.GroupFloat:
		sort.Slice(vv, func(i, j int) bool { return vv[i].Key < vv[j].Key })
	case []agg.GroupUint:
		sort.Slice(vv, func(i, j int) bool { return vv[i].Key < vv[j].Key })
	}
	return v
}

func TestSpecValidation(t *testing.T) {
	r := NewRegistry(false, 2, 2, 2, nil)
	ok := Spec{Name: "v", Query: agg.Query{ID: agg.QCountByKey}, PaneRows: 10, Panes: 2}
	bad := []Spec{
		func() Spec { s := ok; s.Name = ""; return s }(),
		func() Spec { s := ok; s.Name = "a/b"; return s }(),
		func() Spec { s := ok; s.Name = string(make([]byte, 129)); return s }(),
		func() Spec { s := ok; s.PaneRows = 0; return s }(),
		func() Spec { s := ok; s.Panes = 0; return s }(),
		func() Spec { s := ok; s.Panes = maxPanes + 1; return s }(),
		func() Spec { s := ok; s.Query = agg.Query{ID: agg.QueryID(99)}; return s }(),
	}
	for i, sp := range bad {
		if err := r.Register(sp, 0); !errors.Is(err, ErrBadSpec) {
			t.Fatalf("bad spec %d: got %v, want ErrBadSpec", i, err)
		}
	}
	// Holistic query on a distributive registry.
	hs := ok
	hs.Query = agg.Query{ID: agg.QQuantile, P: 0.9}
	if err := r.Register(hs, 0); !errors.Is(err, agg.ErrUnsupported) {
		t.Fatalf("holistic on distributive: got %v, want ErrUnsupported", err)
	}
	if err := r.Register(ok, 0); err != nil {
		t.Fatalf("good spec: %v", err)
	}
	if err := r.Register(ok, 0); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate: got %v, want ErrExists", err)
	}
	if _, err := r.Result("ghost"); !errors.Is(err, ErrUnknown) {
		t.Fatalf("unknown result: got %v, want ErrUnknown", err)
	}
	if r.Drop("ghost") {
		t.Fatal("Drop(ghost) = true")
	}
	if !r.Drop("v") {
		t.Fatal("Drop(v) = false")
	}
	if r.Active() {
		t.Fatal("registry active after last drop")
	}
}

func TestRetentionFloor(t *testing.T) {
	cases := []struct {
		panes   int
		sliding bool
		pIdx    uint64
		want    uint64
	}{
		{3, true, 0, 0}, {3, true, 1, 0}, {3, true, 2, 0},
		{3, true, 3, 1}, {3, true, 10, 8},
		{3, false, 0, 0}, {3, false, 2, 0}, {3, false, 3, 3},
		{3, false, 5, 3}, {3, false, 6, 6},
		{1, true, 7, 7}, {1, false, 7, 7},
	}
	for _, c := range cases {
		sp := Spec{Panes: c.panes, Sliding: c.sliding}
		if got := sp.retentionFloor(c.pIdx); got != c.want {
			t.Errorf("retentionFloor(panes=%d sliding=%v, %d) = %d, want %d",
				c.panes, c.sliding, c.pIdx, got, c.want)
		}
	}
}

func TestPaneLifecycleSliding(t *testing.T) {
	r := NewRegistry(false, 2, 2, 2, nil)
	sp := Spec{Name: "s", Query: agg.Query{ID: agg.QCount}, PaneRows: 100, Panes: 2, Sliding: true}
	if err := r.Register(sp, 0); err != nil {
		t.Fatal(err)
	}
	// Three 100-row seals, each landing exactly on a pane boundary.
	wm := uint64(0)
	for i := 0; i < 3; i++ {
		k, v := rows(i*100, 100, 8)
		wm = seal(r, wm, k, v)
	}
	res, err := r.Result("s")
	if err != nil {
		t.Fatal(err)
	}
	// Sliding 2-pane window over panes {1, 2}: rows (100, 300].
	if res.WindowStart != 100 || res.WindowEnd != 300 || res.Rows != 200 {
		t.Fatalf("window = (%d, %d] rows %d, want (100, 300] rows 200",
			res.WindowStart, res.WindowEnd, res.Rows)
	}
	if res.PanesLive != 2 {
		t.Fatalf("PanesLive = %d, want 2", res.PanesLive)
	}
	if got := res.Value.(uint64); got != 200 {
		t.Fatalf("QCount = %d, want 200", got)
	}
	info, err := r.Info("s")
	if err != nil {
		t.Fatal(err)
	}
	if info.PanesEvicted != 1 {
		t.Fatalf("PanesEvicted = %d, want 1", info.PanesEvicted)
	}
}

func TestPaneLifecycleTumbling(t *testing.T) {
	r := NewRegistry(false, 2, 2, 2, nil)
	sp := Spec{Name: "t", Query: agg.Query{ID: agg.QCount}, PaneRows: 100, Panes: 2}
	if err := r.Register(sp, 0); err != nil {
		t.Fatal(err)
	}
	wm := uint64(0)
	check := func(wantStart, wantRows uint64, wantPanes int) {
		t.Helper()
		res, err := r.Result("t")
		if err != nil {
			t.Fatal(err)
		}
		if res.WindowStart != wantStart || res.Rows != wantRows || res.PanesLive != wantPanes {
			t.Fatalf("window (%d, %d] rows %d panes %d, want start %d rows %d panes %d",
				res.WindowStart, res.WindowEnd, res.Rows, res.PanesLive,
				wantStart, wantRows, wantPanes)
		}
	}
	k, v := rows(0, 100, 8)
	wm = seal(r, wm, k, v)
	check(0, 100, 1) // first pane of bucket {0,1}
	k, v = rows(100, 100, 8)
	wm = seal(r, wm, k, v)
	check(0, 200, 2) // bucket full
	k, v = rows(200, 100, 8)
	wm = seal(r, wm, k, v)
	check(200, 100, 1) // bucket {2,3} opened; {0,1} dropped whole
}

// TestSealSpansPanes: a seal whose end watermark lands inside pane 1 but
// whose rows started in pane 0 credits the whole delta to pane 1 — deltas
// are the atomic visibility unit, windows advance delta by delta.
func TestSealSpansPanes(t *testing.T) {
	r := NewRegistry(false, 2, 2, 2, nil)
	sp := Spec{Name: "x", Query: agg.Query{ID: agg.QCount}, PaneRows: 100, Panes: 4, Sliding: true}
	if err := r.Register(sp, 0); err != nil {
		t.Fatal(err)
	}
	k, v := rows(0, 150, 8)
	seal(r, 0, k, v) // (0, 150] → pane (150-1)/100 = 1
	res, err := r.Result("x")
	if err != nil {
		t.Fatal(err)
	}
	if res.PanesLive != 1 || res.Rows != 150 {
		t.Fatalf("panes %d rows %d, want 1 pane holding all 150 rows", res.PanesLive, res.Rows)
	}
	info, _ := r.Info("x")
	if info.Watermark != 150 {
		t.Fatalf("watermark = %d, want 150", info.Watermark)
	}
}

// TestHolisticPaneOneArena: a settled holistic pane is a partition set at
// the pane fan-out whose tables all buffer their values in one arena, no
// larger than the arena one table of the same rows fills.
func TestHolisticPaneOneArena(t *testing.T) {
	r := NewRegistry(true, 2, 2, 2, nil)
	sp := Spec{Name: "p90", Query: agg.Query{ID: agg.QQuantile, P: 0.9}, PaneRows: 1 << 20, Panes: 1}
	if err := r.Register(sp, 0); err != nil {
		t.Fatal(err)
	}
	var all, allVals []uint64
	wm := uint64(0)
	for i := 0; i < 4; i++ {
		k, v := rows(i*50_000, 50_000, 5000)
		wm = seal(r, wm, k, v)
		all, allVals = append(all, k...), append(allVals, v...)
	}
	if _, err := r.Result(sp.Name); err != nil {
		t.Fatal(err)
	}
	p := r.views[sp.Name].panes[0]
	if len(p.parts) != 1<<2 || len(p.pending) != 0 {
		t.Fatalf("settled pane: %d partitions, %d folds queued; want 4, 0", len(p.parts), len(p.pending))
	}
	ar := p.parts[0].Ar
	for q, tb := range p.parts {
		if tb.Ar != ar {
			t.Fatalf("pane partition %d buffers its values outside partition 0's arena", q)
		}
	}
	ref := agg.NewTable(0)
	agg.AbsorbParts([]agg.Table{ref}, nil, nil, all, allVals, true, 1)
	if got, want := ar.FootprintBytes(), ref.Ar.FootprintBytes(); got > want {
		t.Fatalf("holistic pane holds %d arena bytes, one table of the same rows %d", got, want)
	}
}

func TestRegistrationBarrier(t *testing.T) {
	r := NewRegistry(false, 2, 2, 2, nil)
	sp := Spec{Name: "late", Query: agg.Query{ID: agg.QCount}, PaneRows: 100, Panes: 8, Sliding: true}
	// Registered at watermark 200: the first two seals are history.
	if err := r.Register(sp, 200); err != nil {
		t.Fatal(err)
	}
	k, v := rows(0, 100, 8)
	seal(r, 0, k, v)   // pre-registration: skipped
	seal(r, 100, k, v) // pre-registration: skipped
	seal(r, 200, k, v) // first absorbed seal
	res, err := r.Result("late")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows != 100 || res.Value.(uint64) != 100 {
		t.Fatalf("rows = %d value = %v, want 100 (no double count)", res.Rows, res.Value)
	}
	if res.WindowStart < 200 {
		t.Fatalf("WindowStart = %d, want >= 200", res.WindowStart)
	}
}

func TestGapTruncation(t *testing.T) {
	r := NewRegistry(false, 2, 2, 2, nil)
	sp := Spec{Name: "g", Query: agg.Query{ID: agg.QCount}, PaneRows: 100, Panes: 2, Sliding: true}
	if err := r.Register(sp, 0); err != nil {
		t.Fatal(err)
	}
	k, v := rows(0, 100, 8)
	seal(r, 0, k, v)
	// Replay jumps: rows (100, 300] are gone from the log.
	seal(r, 300, k, v)
	res, err := r.Result("g")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated {
		t.Fatal("window overlapping a replay gap must report Truncated")
	}
	// Slide past the gap: panes 4,5 → window starts at 400 > gapHi 300.
	seal(r, 400, k, v)
	seal(r, 500, k, v)
	res, err = r.Result("g")
	if err != nil {
		t.Fatal(err)
	}
	if res.Truncated {
		t.Fatalf("window (%d, %d] is past the gap, must not report Truncated",
			res.WindowStart, res.WindowEnd)
	}
}

// TestResultCacheVersioning: the version that servers key response caches
// and ETags on holds still across reads of an unchanged view and bumps on
// every fold.
func TestResultCacheVersioning(t *testing.T) {
	r := NewRegistry(false, 2, 2, 2, nil)
	sp := Spec{Name: "c", Query: agg.Query{ID: agg.QCountByKey}, PaneRows: 1000, Panes: 1}
	if err := r.Register(sp, 0); err != nil {
		t.Fatal(err)
	}
	k, v := rows(0, 100, 8)
	seal(r, 0, k, v)
	r1, err := r.Result("c")
	if err != nil {
		t.Fatal(err)
	}
	r2, err := r.Result("c")
	if err != nil {
		t.Fatal(err)
	}
	if r2.Version != r1.Version {
		t.Fatalf("unchanged view: version %d then %d", r1.Version, r2.Version)
	}
	seal(r, 100, k, v)
	r3, err := r.Result("c")
	if err != nil {
		t.Fatal(err)
	}
	if r3.Version == r1.Version {
		t.Fatal("a fold must bump the version")
	}
}

func TestPersistRoundTrip(t *testing.T) {
	r := NewRegistry(true, 2, 2, 2, nil)
	specs := []Spec{
		{Name: "counts", Query: agg.Query{ID: agg.QCountByKey}, PaneRows: 100, Panes: 3, Sliding: true},
		{Name: "p90", Query: agg.Query{ID: agg.QQuantile, P: 0.9}, PaneRows: 100, Panes: 2},
		{Name: "sums", Query: agg.Query{ID: agg.QReduce, Op: agg.OpSum}, PaneRows: 250, Panes: 2, Sliding: true},
	}
	for _, sp := range specs {
		if err := r.Register(sp, 0); err != nil {
			t.Fatal(err)
		}
	}
	wm := uint64(0)
	for i := 0; i < 5; i++ {
		k, v := rows(i*100, 100, 16)
		wm = seal(r, wm, k, v)
	}

	fs := wal.NewMemFS()
	if err := r.SaveDefs(fs, "cv"); err != nil {
		t.Fatal(err)
	}
	if err := r.SavePanes(fs, "cv"); err != nil {
		t.Fatal(err)
	}
	saved, err := Load(fs, "cv", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(saved) != len(specs) {
		t.Fatalf("Load returned %d views, want %d", len(saved), len(specs))
	}
	r2 := NewRegistry(true, 2, 2, 2, nil)
	for _, sv := range saved {
		if err := r2.Restore(sv); err != nil {
			t.Fatal(err)
		}
	}
	for _, sp := range specs {
		a, err := r.Result(sp.Name)
		if err != nil {
			t.Fatal(err)
		}
		b, err := r2.Result(sp.Name)
		if err != nil {
			t.Fatal(err)
		}
		if a.WindowStart != b.WindowStart || a.WindowEnd != b.WindowEnd ||
			a.Rows != b.Rows || a.Groups != b.Groups || a.PanesLive != b.PanesLive {
			t.Fatalf("%s: restored shape %+v, want %+v", sp.Name, b, a)
		}
		if !reflect.DeepEqual(sortValue(a.Value), sortValue(b.Value)) {
			t.Fatalf("%s: restored value %v, want %v", sp.Name, b.Value, a.Value)
		}
	}

	// Definitions alone (no PANES): views come back empty at their start
	// watermark, ready for WAL replay.
	fs2 := wal.NewMemFS()
	if err := r.SaveDefs(fs2, "cv"); err != nil {
		t.Fatal(err)
	}
	saved2, err := Load(fs2, "cv", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(saved2) != len(specs) {
		t.Fatalf("defs-only Load returned %d views, want %d", len(saved2), len(specs))
	}
	for _, sv := range saved2 {
		if len(sv.Panes) != 0 || sv.LastWM != 0 {
			t.Fatalf("defs-only view %q carries pane state: %+v", sv.Spec.Name, sv)
		}
	}

	// Nothing persisted at all.
	if saved, err := Load(wal.NewMemFS(), "cv", 2); err != nil || saved != nil {
		t.Fatalf("empty dir: got %v, %v", saved, err)
	}
}

// TestUnsettledPaneRoundTrip: a pane gets its table only when its first
// queued fold settles. A pane persisted or read straight after it opened
// (folds still queued, no table yet), and a restored pane that holds no
// groups at all (no table, nothing queued), must read, persist and reload
// like any other — and the empty one must take a later fold.
func TestUnsettledPaneRoundTrip(t *testing.T) {
	sp := Spec{Name: "counts", Query: agg.Query{ID: agg.QCountByKey}, PaneRows: 100, Panes: 2, Sliding: true}
	want := func(keys []uint64) []agg.GroupCount {
		return sortValue(agg.HashLP().VectorCount(keys)).([]agg.GroupCount)
	}
	read := func(r *Registry) *Result {
		t.Helper()
		res, err := r.Result(sp.Name)
		if err != nil {
			t.Fatal(err)
		}
		sortValue(res.Value)
		return res
	}
	reload := func(r *Registry) *Registry {
		t.Helper()
		fs := wal.NewMemFS()
		if err := r.SaveDefs(fs, "cv"); err != nil {
			t.Fatal(err)
		}
		if err := r.SavePanes(fs, "cv"); err != nil {
			t.Fatal(err)
		}
		saved, err := Load(fs, "cv", 2)
		if err != nil {
			t.Fatal(err)
		}
		r2 := NewRegistry(false, 2, 2, 2, nil)
		for _, sv := range saved {
			if err := r2.Restore(sv); err != nil {
				t.Fatal(err)
			}
		}
		return r2
	}

	// Persisted, then read, before any settle.
	r := NewRegistry(false, 2, 2, 2, nil)
	if err := r.Register(sp, 0); err != nil {
		t.Fatal(err)
	}
	k, v := rows(0, 60, 16)
	seal(r, 0, k, v)
	if p := r.views[sp.Name].panes[0]; p.parts != nil || len(p.pending) != 1 {
		t.Fatalf("fresh pane: set allocated %v, %d folds queued; want none, 1", p.parts != nil, len(p.pending))
	}
	if got := read(reload(r)); got.Rows != 60 || !reflect.DeepEqual(got.Value, want(k)) {
		t.Fatalf("persisted unsettled pane reloads as %d rows %v", got.Rows, got.Value)
	}
	if got := read(r); got.Rows != 60 || !reflect.DeepEqual(got.Value, want(k)) {
		t.Fatalf("unsettled pane reads %d rows %v", got.Rows, got.Value)
	}

	// A restored pane with no groups: no table, nothing queued.
	r = NewRegistry(false, 2, 2, 2, nil)
	if err := r.Restore(Saved{Spec: sp, Panes: []SavedPane{{Idx: 0}}}); err != nil {
		t.Fatal(err)
	}
	if got := read(r); got.PanesLive != 1 || got.Groups != 0 || len(got.Value.([]agg.GroupCount)) != 0 {
		t.Fatalf("empty pane reads %d panes, %d groups, %v", got.PanesLive, got.Groups, got.Value)
	}
	r = reload(r)
	if got := read(r); got.PanesLive != 1 || got.Groups != 0 {
		t.Fatalf("empty pane reloads as %d panes, %d groups", got.PanesLive, got.Groups)
	}
	seal(r, 0, k, v)
	if got := read(r); got.PanesLive != 1 || got.Rows != 60 || !reflect.DeepEqual(got.Value, want(k)) {
		t.Fatalf("empty pane after a fold reads %d panes, %d rows, %v", got.PanesLive, got.Rows, got.Value)
	}
}
