package stream

import (
	"reflect"
	"testing"

	"memagg/internal/agg"
	"memagg/internal/cview"
	"memagg/internal/dataset"
)

func snapshotTestData(n, card int, seed uint64) ([]uint64, []uint64) {
	spec := dataset.Spec{Kind: dataset.RseqShf, N: n, Cardinality: card, Seed: seed}
	keys := spec.Keys()
	return keys, dataset.Values(len(keys), seed)
}

// TestQueryCacheWatermarkIsolation proves a snapshot answers from the rows
// it pinned: one taken before new rows seal keeps returning its original
// rows, and a snapshot of the advanced view answers at the new watermark.
// The name dates from the per-view query cache that once sat in front of
// Snapshot; the isolation it guards holds without that cache.
func TestQueryCacheWatermarkIsolation(t *testing.T) {
	keys, vals := snapshotTestData(20_000, 4_000, 102)
	s := layeredStream(t, Config{SealRows: 1 << 11, MergeBits: 5}, keys, vals, len(keys)/2)
	defer s.Close()

	oldSn := s.Snapshot()
	oldRows := oldSn.CountByKey()
	oldWM := oldSn.Watermark()

	// Advance the stream: the new seal installs a new view at a higher
	// watermark.
	extra := []uint64{1, 2, 3, 4, 5, 6, 7, 8}
	if err := s.AppendChunk(agg.Chunk{Keys: extra, Vals: extra}); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}

	newSn := s.Snapshot()
	if newSn.Watermark() != oldWM+uint64(len(extra)) {
		t.Fatalf("new watermark %d, want %d", newSn.Watermark(), oldWM+uint64(len(extra)))
	}
	var newTotal uint64
	for _, r := range newSn.CountByKey() {
		newTotal += r.Count
	}
	if newTotal != newSn.Watermark() {
		t.Fatalf("new Q1 total %d != new watermark %d", newTotal, newSn.Watermark())
	}

	// The old snapshot still answers its own view: the same rows, still
	// consistent with the old watermark.
	again := oldSn.CountByKey()
	if !reflect.DeepEqual(again, oldRows) {
		t.Fatal("old snapshot's Q1 changed after new rows sealed")
	}
	var oldTotal uint64
	for _, r := range again {
		oldTotal += r.Count
	}
	if oldTotal != oldWM {
		t.Fatalf("old Q1 total %d != old watermark %d", oldTotal, oldWM)
	}
}

// TestQueryCacheParamsKeyed proves parameterized queries on one snapshot
// answer per parameter: different CountRange bounds and quantiles must not
// collide. The name dates from the per-view query cache whose key once had
// to carry the parameters.
func TestQueryCacheParamsKeyed(t *testing.T) {
	keys, vals := snapshotTestData(10_000, 2_000, 103)
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
		t.Fatal("p50 and p99 identical: quantile parameter ignored")
	}
}

// TestSnapshotResultsCallerOwned proves query and view results belong to
// the caller: repeated reads of one snapshot, or of one unchanged view,
// return distinct backing arrays, so mutating one result leaves every
// other read untouched.
func TestSnapshotResultsCallerOwned(t *testing.T) {
	keys, vals := snapshotTestData(10_000, 2_000, 106)
	s := layeredStream(t, Config{SealRows: 1 << 11, MergeBits: 5}, keys, vals, len(keys)/2)
	defer s.Close()

	sn := s.Snapshot()
	a, b := sn.CountByKey(), sn.CountByKey()
	if len(a) == 0 || &a[0] == &b[0] {
		t.Fatal("two CountByKey calls share a backing array")
	}
	want := append([]agg.GroupCount(nil), b...)
	for i := range a {
		a[i].Count = 0
	}
	if !reflect.DeepEqual(b, want) {
		t.Fatal("mutating one result changed another")
	}
	if c := sn.CountByKey(); !reflect.DeepEqual(c, want) {
		t.Fatal("mutating one result changed a later call")
	}

	vs := New(viewConfig())
	defer vs.Close()
	if err := vs.RegisterView(cview.Spec{Name: "own", Query: agg.Query{ID: agg.QCountByKey},
		PaneRows: 100, Panes: 4, Sliding: true}); err != nil {
		t.Fatal(err)
	}
	for off := 0; off < 400; off += 100 {
		if err := vs.AppendChunk(agg.Chunk{Keys: keys[off : off+100], Vals: vals[off : off+100]}); err != nil {
			t.Fatal(err)
		}
		if err := vs.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	read := func() []agg.GroupCount {
		r, err := vs.ViewResult("own")
		if err != nil {
			t.Fatal(err)
		}
		return r.Value.([]agg.GroupCount)
	}
	va, vb := read(), read()
	if len(va) == 0 || &va[0] == &vb[0] {
		t.Fatal("two ViewResult reads of an unchanged view share a backing array")
	}
	vwant := append([]agg.GroupCount(nil), vb...)
	for i := range va {
		va[i].Count = 0
	}
	if !reflect.DeepEqual(vb, vwant) {
		t.Fatal("mutating one view result changed another")
	}
	if vc := read(); !reflect.DeepEqual(vc, vwant) {
		t.Fatal("mutating one view result changed a later read")
	}
}
