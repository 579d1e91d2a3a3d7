package stream

import (
	"fmt"
	"testing"

	"memagg/internal/agg"
	"memagg/internal/dataset"
)

// kinds returns the kinds of the view's sealed deltas in seal order, 'T'
// for a table delta and 'R' for a run.
func kinds(s *Stream) string {
	var out []byte
	for _, d := range s.view.Load().sealed {
		switch {
		case d.src.Rows != nil && d.src.Parts == nil:
			out = append(out, 'R')
		case d.src.Parts != nil && d.src.Rows == nil:
			out = append(out, 'T')
		default:
			out = append(out, '?')
		}
	}
	return string(out)
}

// TestDeltaKind pins the choice of delta kind at the default seal size
// and fan-out: uniform keys over 64 Ki groups leave a 32 Ki-row delta
// about 1.3 rows per group, so after its first delta (a table) a shard
// seals runs, with every 16th delta a table again; 512 groups cut every
// delta 64-fold, so every delta is a table. Past maxDeltaBits every delta
// is a run, however much a table would have cut. Either kind is
// partitioned at MergeBits.
func TestDeltaKind(t *testing.T) {
	for _, c := range []struct {
		groups, bits int
		want         string
	}{
		{1 << 16, maxDeltaBits, "TRRRRRRRRRRRRRRRTRR"},
		{512, maxDeltaBits, "TTTTTTTTTTTTTTTTTTT"},
		{512, maxDeltaBits + 1, "RRRRRRRRRRRRRRRRRRR"},
	} {
		s := New(Config{Shards: 1, MergeBits: c.bits, DisableMerger: true})
		n := len(c.want) << 15
		spec := dataset.Spec{Kind: dataset.RseqShf, N: n, Cardinality: c.groups, Seed: 3}
		keys := spec.Keys()
		for off := 0; off < n; off += 1 << 15 {
			if err := s.AppendChunk(agg.Chunk{Keys: keys[off : off+1<<15], Vals: keys[off : off+1<<15]}); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("groups=%d bits=%d", c.groups, c.bits)
		if got := kinds(s); got != c.want {
			t.Fatalf("%s: delta kinds %s, want %s", label, got, c.want)
		}
		for _, d := range s.view.Load().sealed {
			if r := d.src.Rows; r != nil && len(r.Bounds) != 1<<c.bits+1 {
				t.Fatalf("%s: run of %d partitions, want %d", label, len(r.Bounds)-1, 1<<c.bits)
			}
			if p := d.src.Parts; p != nil && len(p) != 1<<c.bits {
				t.Fatalf("%s: table delta of %d partitions, want %d", label, len(p), 1<<c.bits)
			}
		}
		runs := uint64(0)
		for _, k := range c.want {
			if k == 'R' {
				runs++
			}
		}
		if st := s.Stats(); st.RunSeals != runs || st.Seals != uint64(len(c.want)) {
			t.Fatalf("%s: Stats reports %d run seals of %d, want %d of %d", label, st.RunSeals, st.Seals, runs, len(c.want))
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDeltaKindFlipMatchesBatch: a stream whose key space narrows partway
// flips its shard from runs back to tables at the next table delta, and
// every answer — holistic ones included — stays the batch engines' over
// the same rows: with all deltas unmerged (a snapshot folds tables and
// runs into one set), after merging them all, and after Close.
func TestDeltaKindFlipMatchesBatch(t *testing.T) {
	const seal = 1 << 12
	wide := dataset.Spec{Kind: dataset.RseqShf, N: 20 * seal, Cardinality: 1 << 14, Seed: 5}.Keys()
	narrow := dataset.Spec{Kind: dataset.Zipf, N: 30 * seal, Cardinality: 128, Seed: 6}.Keys()
	keys := append(wide, narrow...)
	vals := dataset.Values(len(keys), 7)
	s := New(Config{Shards: 1, SealRows: seal, MergeBits: maxDeltaBits, Holistic: true, DisableMerger: true})
	for off := 0; off < len(keys); off += seal / 4 { // four segments per delta
		end := off + seal/4
		if err := s.AppendChunk(agg.Chunk{Keys: keys[off:end], Vals: vals[off:end]}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	// 20 wide deltas: a table, 15 runs, a table, 3 runs; then 12 narrow
	// runs before the table delta that measures the narrow key space, and
	// tables from there on.
	want := "T" + repeat('R', 15) + "T" + repeat('R', 3) + repeat('R', 12) + repeat('T', 18)
	if got := kinds(s); got != want {
		t.Fatalf("delta kinds %s, want %s", got, want)
	}
	checkAgainstBatch(t, "unmerged", s.Snapshot(), keys, vals)
	if !s.MergeNow() {
		t.Fatal("MergeNow found nothing to merge")
	}
	checkAgainstBatch(t, "merged", s.Snapshot(), keys, vals)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	checkAgainstBatch(t, "closed", s.Snapshot(), keys, vals)
}

func repeat(b byte, n int) string {
	out := make([]byte, n)
	for i := range out {
		out[i] = b
	}
	return string(out)
}
