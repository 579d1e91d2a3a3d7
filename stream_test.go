package memagg

import (
	"sort"
	"testing"
)

// TestStreamMatchesAggregator replays a generated dataset through the
// public streaming API and checks every query against the batch Aggregator
// over the same rows.
func TestStreamMatchesAggregator(t *testing.T) {
	keys, err := Generate(RseqShf, 30_000, 2_000, 7)
	if err != nil {
		t.Fatal(err)
	}
	vals := GenerateValues(len(keys), 7)

	s := NewStream(StreamOptions{
		Workload: Workload{
			Output:          Vector,
			Function:        Holistic, // implies value retention
			Multithreaded:   true,
			EstimatedGroups: 2_000,
		},
		SealRows: 4_096,
	})
	for off := 0; off < len(keys); off += 1_000 {
		end := off + 1_000
		if end > len(keys) {
			end = len(keys)
		}
		if err := s.AppendChunk(Chunk{Keys: keys[off:end], Vals: vals[off:end]}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	sn := s.Snapshot()

	batch, err := New(HashLP, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tree, err := New(Btree, Options{})
	if err != nil {
		t.Fatal(err)
	}

	if sn.Watermark() != uint64(len(keys)) {
		t.Fatalf("watermark = %d want %d", sn.Watermark(), len(keys))
	}
	checkCounts(t, "Q1", sn.CountByKey(), batch.CountByKey(keys))
	checkValues(t, "Q2", sn.AvgByKey(), batch.AvgByKey(keys, vals))
	med, err := sn.MedianByKey()
	if err != nil {
		t.Fatal(err)
	}
	checkValues(t, "Q3", med, batch.MedianByKey(keys, vals))
	if got, want := sn.Count(), batch.Count(keys); got != want {
		t.Fatalf("Q4 = %d want %d", got, want)
	}
	if got, want := sn.Avg(), batch.Avg(vals); got != want {
		t.Fatalf("Q5 = %v want %v", got, want)
	}
	wantMed, err := tree.Median(keys)
	if err != nil {
		t.Fatal(err)
	}
	gotMed, err := sn.Median()
	if err != nil {
		t.Fatal(err)
	}
	if gotMed != wantMed {
		t.Fatalf("Q6 = %v want %v", gotMed, wantMed)
	}
	wantRange, err := tree.CountRange(keys, 100, 600)
	if err != nil {
		t.Fatal(err)
	}
	gotRange, err := sn.CountRange(100, 600)
	if err != nil {
		t.Fatal(err)
	}
	checkCounts(t, "Q7", gotRange, wantRange)

	q90, err := sn.QuantileByKey(0.9)
	if err != nil {
		t.Fatal(err)
	}
	checkValues(t, "q90", q90, batch.QuantileByKey(keys, vals, 0.9))
	mode, err := sn.ModeByKey()
	if err != nil {
		t.Fatal(err)
	}
	checkValues(t, "mode", mode, batch.ModeByKey(keys, vals))

	sums := sn.SumByKey()
	wantSums := batch.SumByKey(keys, vals)
	sortStats(sums)
	sortStats(wantSums)
	if len(sums) != len(wantSums) {
		t.Fatalf("sum: %d groups want %d", len(sums), len(wantSums))
	}
	for i := range sums {
		if sums[i] != wantSums[i] {
			t.Fatalf("sum[%d] = %+v want %+v", i, sums[i], wantSums[i])
		}
	}

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendChunk(Chunk{Keys: keys[:1], Vals: vals[:1]}); err != ErrClosed {
		t.Fatalf("Append after Close = %v want ErrClosed", err)
	}
	// Queries still serve after Close, now over the merged base.
	checkCounts(t, "Q1 after Close", s.Snapshot().CountByKey(), batch.CountByKey(keys))
}

// TestStreamWorkloadDerivation checks the Workload-driven defaults: a
// non-multithreaded distributive workload gets one shard and no value
// retention (holistic queries unsupported).
func TestStreamWorkloadDerivation(t *testing.T) {
	s := NewStream(StreamOptions{})
	defer s.Close()
	if st := s.Stats(); st.Shards != 1 || st.Holistic {
		t.Fatalf("zero-options stream: shards=%d holistic=%v want 1,false", st.Shards, st.Holistic)
	}
	if err := s.AppendChunk(Chunk{Keys: []uint64{1, 2}, Vals: []uint64{3, 4}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Snapshot().MedianByKey(); err != ErrUnsupportedQuery {
		t.Fatalf("MedianByKey on distributive stream = %v want ErrUnsupportedQuery", err)
	}

	h := NewStream(StreamOptions{Workload: Workload{Function: Holistic, Multithreaded: true}})
	defer h.Close()
	if st := h.Stats(); !st.Holistic || st.Shards < 1 {
		t.Fatalf("holistic workload: holistic=%v shards=%d", st.Holistic, st.Shards)
	}
	if got := h.Advice().Backend; got != SortBI {
		t.Fatalf("advice for multithreaded holistic = %v want Sort_BI", got)
	}
}

func checkCounts(t *testing.T, label string, got, want []GroupCount) {
	t.Helper()
	sort.Slice(got, func(i, j int) bool { return got[i].Key < got[j].Key })
	sort.Slice(want, func(i, j int) bool { return want[i].Key < want[j].Key })
	if len(got) != len(want) {
		t.Fatalf("%s: %d groups want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s[%d] = %+v want %+v", label, i, got[i], want[i])
		}
	}
}

func checkValues(t *testing.T, label string, got, want []GroupValue) {
	t.Helper()
	sort.Slice(got, func(i, j int) bool { return got[i].Key < got[j].Key })
	sort.Slice(want, func(i, j int) bool { return want[i].Key < want[j].Key })
	if len(got) != len(want) {
		t.Fatalf("%s: %d groups want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s[%d] = %+v want %+v", label, i, got[i], want[i])
		}
	}
}

func sortStats(rows []GroupStat) {
	sort.Slice(rows, func(i, j int) bool { return rows[i].Key < rows[j].Key })
}
