package stream

import (
	"math/rand"
	"sort"
	"sync"
	"testing"

	"memagg/internal/agg"
	"memagg/internal/dataset"
	"memagg/internal/radix"
)

// equivSpecs mirrors the batch gate's coverage: uniform and skewed key
// distributions at low and high group-by cardinality.
func equivSpecs() []dataset.Spec {
	return []dataset.Spec{
		{Kind: dataset.RseqShf, N: 2_000, Cardinality: 97, Seed: 61},
		{Kind: dataset.Zipf, N: 20_000, Cardinality: 500, Seed: 62},
		{Kind: dataset.RseqShf, N: 60_000, Cardinality: 20_000, Seed: 63},
		{Kind: dataset.HhitShf, N: 60_000, Cardinality: 5_000, Seed: 64},
	}
}

func sortedQ1(rows []agg.GroupCount) []agg.GroupCount {
	out := append([]agg.GroupCount(nil), rows...)
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

func sortedQF(rows []agg.GroupFloat) []agg.GroupFloat {
	out := append([]agg.GroupFloat(nil), rows...)
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

func sortedQU(rows []agg.GroupUint) []agg.GroupUint {
	out := append([]agg.GroupUint(nil), rows...)
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// replay feeds keys/vals into the stream in random-size batches, taking
// snapshots concurrently with ingest and checking their internal
// consistency (Q1 row total == Q4 == watermark at all times).
func replay(t *testing.T, s *Stream, keys, vals []uint64, seed int64) {
	t.Helper()
	stop := make(chan struct{})
	var snapWG sync.WaitGroup
	snapWG.Add(1)
	go func() {
		defer snapWG.Done()
		for {
			sn := s.Snapshot()
			var total uint64
			for _, g := range sn.CountByKey() {
				total += g.Count
			}
			if total != sn.Count() || total != sn.Watermark() {
				panic("inconsistent snapshot: Q1 total != watermark")
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()

	rng := rand.New(rand.NewSource(seed))
	for off := 0; off < len(keys); {
		n := 1 + rng.Intn(2000)
		if off+n > len(keys) {
			n = len(keys) - off
		}
		if err := s.AppendChunk(agg.Chunk{Keys: keys[off : off+n], Vals: vals[off : off+n]}); err != nil {
			t.Fatal(err)
		}
		off += n
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	snapWG.Wait()
}

// checkAgainstBatch compares every Q1–Q7 readout of sn against the batch
// engines over the same rows: Hash_LP as the hash-side reference, Btree
// for the inherently ordered Q6/Q7.
func checkAgainstBatch(t *testing.T, label string, sn *Snapshot, keys, vals []uint64) {
	t.Helper()
	ref := agg.HashLP()
	tree := agg.Btree()

	if sn.Watermark() != uint64(len(keys)) {
		t.Fatalf("%s: watermark = %d want %d", label, sn.Watermark(), len(keys))
	}
	wantQ1 := sortedQ1(ref.VectorCount(keys))
	if gotQ1 := sortedQ1(sn.CountByKey()); len(gotQ1) != len(wantQ1) {
		t.Fatalf("%s: Q1 %d groups want %d", label, len(gotQ1), len(wantQ1))
	} else {
		for i := range gotQ1 {
			if gotQ1[i] != wantQ1[i] {
				t.Fatalf("%s: Q1[%d] = %+v want %+v", label, i, gotQ1[i], wantQ1[i])
			}
		}
	}
	wantQ2 := sortedQF(ref.VectorAvg(keys, vals))
	gotQ2 := sortedQF(sn.AvgByKey())
	for i := range gotQ2 {
		if gotQ2[i] != wantQ2[i] {
			t.Fatalf("%s: Q2[%d] = %+v want %+v", label, i, gotQ2[i], wantQ2[i])
		}
	}
	wantQ3 := sortedQF(ref.VectorMedian(keys, vals))
	q3, err := sn.MedianByKey()
	if err != nil {
		t.Fatalf("%s: Q3: %v", label, err)
	}
	gotQ3 := sortedQF(q3)
	for i := range gotQ3 {
		if gotQ3[i] != wantQ3[i] {
			t.Fatalf("%s: Q3[%d] = %+v want %+v", label, i, gotQ3[i], wantQ3[i])
		}
	}
	if got, want := sn.Count(), agg.ScalarCount(keys); got != want {
		t.Fatalf("%s: Q4 = %d want %d", label, got, want)
	}
	if got, want := sn.Avg(), agg.ScalarAvg(vals); got != want {
		t.Fatalf("%s: Q5 = %v want %v", label, got, want)
	}
	wantQ6, err := tree.ScalarMedian(keys)
	if err != nil {
		t.Fatalf("%s: batch Q6: %v", label, err)
	}
	gotQ6, err := sn.Median()
	if err != nil {
		t.Fatalf("%s: Q6: %v", label, err)
	}
	if gotQ6 != wantQ6 {
		t.Fatalf("%s: Q6 = %v want %v", label, gotQ6, wantQ6)
	}
	lo := keys[len(keys)/3]
	hi := lo + 500
	wantQ7, err := tree.VectorCountRange(keys, lo, hi)
	if err != nil {
		t.Fatalf("%s: batch Q7: %v", label, err)
	}
	gotQ7, err := sn.CountRange(lo, hi)
	if err != nil {
		t.Fatalf("%s: Q7: %v", label, err)
	}
	if len(gotQ7) != len(wantQ7) {
		t.Fatalf("%s: Q7 %d rows want %d", label, len(gotQ7), len(wantQ7))
	}
	for i := range gotQ7 {
		if gotQ7[i] != wantQ7[i] {
			t.Fatalf("%s: Q7[%d] = %+v want %+v", label, i, gotQ7[i], wantQ7[i])
		}
	}
	for _, op := range []agg.ReduceOp{agg.OpSum, agg.OpMin, agg.OpMax} {
		want := sortedQU(ref.VectorReduce(keys, vals, op))
		got := sortedQU(sn.Reduce(op))
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: reduce(%v)[%d] = %+v want %+v", label, op, i, got[i], want[i])
			}
		}
	}
}

// TestStreamMatchesBatchEngines is the stream-vs-batch equivalence gate:
// replaying a dataset through the stream in random batch sizes — with
// snapshots taken concurrently during ingest — must produce exactly the
// batch engines' Q1–Q7 answers at the final watermark, both before the
// final merge (snapshot over base + sealed deltas) and after Close (one
// fully merged generation). Run under -race this also validates the
// view-swapping protocol.
func TestStreamMatchesBatchEngines(t *testing.T) {
	for _, spec := range equivSpecs() {
		keys := spec.Keys()
		vals := dataset.Values(len(keys), spec.Seed)
		for _, shards := range []int{1, 3} {
			s := New(Config{
				Shards:    shards,
				SealRows:  1 << 12, // several seals and merge cycles per spec
				MergeBits: 5,
				Holistic:  true,
			})
			replay(t, s, keys, vals, int64(spec.Seed))

			// Flushed but possibly unmerged: snapshot folds sealed deltas.
			label := spec.String() + "/shards=" + string(rune('0'+shards)) + "/flushed"
			checkAgainstBatch(t, label, s.Snapshot(), keys, vals)

			// Closed: everything folded into one final base generation.
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			label = spec.String() + "/shards=" + string(rune('0'+shards)) + "/closed"
			checkAgainstBatch(t, label, s.Snapshot(), keys, vals)
		}
	}
}

// TestStreamPastDeltaCapMatchesBatch runs the equivalence gate on a
// stream whose MergeBits exceeds maxDeltaBits: every delta it seals is a
// run scattered at MergeBits, whatever its keys would aggregate to, and
// every merge and snapshot fold takes the run's partition q into base
// partition q. The answers must still be the batch engines', and every
// merged group must sit in its PartitionIndex partition.
func TestStreamPastDeltaCapMatchesBatch(t *testing.T) {
	for _, spec := range equivSpecs()[1:3] {
		keys := spec.Keys()
		vals := dataset.Values(len(keys), spec.Seed)
		for _, shards := range []int{1, 3} {
			s := New(Config{Shards: shards, SealRows: 1 << 12, MergeBits: maxDeltaBits + 3, Holistic: true})
			replay(t, s, keys, vals, int64(spec.Seed))
			label := spec.String() + "/shards=" + string(rune('0'+shards))
			for _, d := range s.view.Load().sealed {
				if r := d.src.Rows; r == nil || d.src.Parts != nil {
					t.Fatalf("%s: a table delta past the cap, want only runs", label)
				} else if len(r.Bounds) != 1<<(maxDeltaBits+3)+1 {
					t.Fatalf("%s: run delta of %d partitions, want %d", label, len(r.Bounds)-1, 1<<(maxDeltaBits+3))
				}
			}
			checkAgainstBatch(t, label+"/flushed", s.Snapshot(), keys, vals)
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			g := s.view.Load().base
			if g == nil || len(g.parts) != 1<<(maxDeltaBits+3) {
				t.Fatalf("%s: base generation is not at MergeBits", label)
			}
			for q, p := range g.parts {
				if p.T == nil {
					continue
				}
				p.T.Iterate(func(k uint64, _ *agg.Partial) bool {
					if r := radix.PartitionIndex(k, maxDeltaBits+3); r != q {
						t.Fatalf("%s: key %d in base partition %d, belongs in %d", label, k, q, r)
					}
					return true
				})
			}
			checkAgainstBatch(t, label+"/closed", s.Snapshot(), keys, vals)
			if st := s.Stats(); st.Seals == 0 || st.RunSeals != st.Seals {
				t.Fatalf("%s: %d run seals of %d, want every seal a run", label, st.RunSeals, st.Seals)
			}
		}
	}
}

// TestHolisticDisabled checks the non-holistic configuration: distributive
// queries work, holistic ones report agg.ErrUnsupported (the value
// multisets were never retained).
func TestHolisticDisabled(t *testing.T) {
	s := New(Config{Shards: 1})
	if err := s.AppendChunk(agg.Chunk{Keys: []uint64{1, 1, 2}, Vals: []uint64{3, 5, 7}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	sn := s.Snapshot()
	if _, err := sn.MedianByKey(); err != agg.ErrUnsupported {
		t.Fatalf("MedianByKey without Holistic = %v want ErrUnsupported", err)
	}
	if _, err := sn.QuantileByKey(0.9); err != agg.ErrUnsupported {
		t.Fatalf("QuantileByKey without Holistic = %v want ErrUnsupported", err)
	}
	rows := sortedQ1(sn.CountByKey())
	if len(rows) != 2 || rows[0].Count != 2 || rows[1].Count != 1 {
		t.Fatalf("Q1 = %+v", rows)
	}
}
