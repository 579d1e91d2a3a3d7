package stream

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"memagg/internal/agg"
	"memagg/internal/dataset"
	"memagg/internal/hashtbl"
	"memagg/internal/obs"
	"memagg/internal/radix"
	"memagg/internal/wal"
)

// The merger folds sealed deltas into a base generation in place when no
// reader has pinned it, and copies only the partitions a snapshot (or the
// checkpointer) can see. These tests hold that path to exact snapshot
// isolation.

// appendSealed appends rows in 1000-row chunks and flushes, so every row
// is sealed and visible when it returns.
func appendSealed(tb testing.TB, s *Stream, keys, vals []uint64) {
	tb.Helper()
	for off := 0; off < len(keys); off += 1000 {
		end := min(off+1000, len(keys))
		if err := s.AppendChunk(agg.Chunk{Keys: keys[off:end], Vals: vals[off:end]}); err != nil {
			tb.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		tb.Fatal(err)
	}
}

// snapAnswers is what an isolation test compares: Q1 and the sum reduce,
// sorted, plus the watermark they must agree with.
type snapAnswers struct {
	Watermark uint64
	Q1        []agg.GroupCount
	Sum       []agg.GroupUint
}

func answers(sn *Snapshot) snapAnswers {
	return snapAnswers{
		Watermark: sn.Watermark(),
		Q1:        sortedQ1(sn.CountByKey()),
		Sum:       sortedQU(sn.Reduce(agg.OpSum)),
	}
}

// TestInPlaceSnapshotIsolation: a snapshot taken before N further merges
// answers exactly its original CountByKey/Reduce rows afterwards — whether
// it was read before the merges ran or only after them, and whether it
// pinned a bare base or a base plus unmerged deltas — while the merges
// after the first one fold in place.
func TestInPlaceSnapshotIsolation(t *testing.T) {
	keys, vals := snapshotTestData(40_000, 3_000, 211)
	s := New(Config{Shards: 1, SealRows: 1 << 11, MergeBits: 4, DisableMerger: true})
	defer s.Close()
	appendSealed(t, s, keys[:10_000], vals[:10_000])
	s.MergeNow()

	readEarly := s.Snapshot() // a bare base, read before the merges
	want := answers(readEarly)
	appendSealed(t, s, keys[10_000:15_000], vals[10_000:15_000])
	readLate := s.Snapshot() // base plus sealed deltas, first read after the merges
	appendSealed(t, s, keys[15_000:20_000], vals[15_000:20_000])
	s.MergeNow() // the base both snapshots pinned is copied

	before := s.m.mergeInPlace.Value()
	for off := 20_000; off < len(keys); off += 4_000 {
		appendSealed(t, s, keys[off:off+4_000], vals[off:off+4_000])
		s.MergeNow()
		if got := answers(readEarly); !reflect.DeepEqual(got, want) {
			t.Fatalf("after merging through row %d: the early snapshot's answers changed", off+4_000)
		}
	}
	if s.m.mergeInPlace.Value() == before {
		t.Fatal("no merge folded in place: the test exercised only the copy path")
	}
	ref := layeredStream(t, Config{SealRows: 1 << 11, MergeBits: 4}, keys[:15_000], vals[:15_000], 15_000)
	defer ref.Close()
	if got, want := answers(readLate), answers(ref.Snapshot()); !reflect.DeepEqual(got, want) {
		t.Fatalf("late-read snapshot: watermark %d, want the answers of the first %d rows", got.Watermark, want.Watermark)
	}
	if total := sumCounts(answers(s.Snapshot()).Q1); total != uint64(len(keys)) {
		t.Fatalf("current snapshot counts %d rows, want %d", total, len(keys))
	}
}

func sumCounts(rows []agg.GroupCount) uint64 {
	var n uint64
	for _, r := range rows {
		n += r.Count
	}
	return n
}

// halfKeys returns n keys drawn from those in [1, 4000] whose partition
// at fan-out bits lies in [lo, hi).
func halfKeys(n, bits, lo, hi int) []uint64 {
	var pool []uint64
	for k := uint64(1); k <= 4000; k++ {
		if q := radix.PartitionIndex(k, bits); q >= lo && q < hi {
			pool = append(pool, k)
		}
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = pool[(i*7919)%len(pool)]
	}
	return out
}

// TestInPlaceOwnershipAcrossGenerations is the case the ownership mask
// exists for. g1 is pinned. A merge touching only the low half of the
// partitions copies them, giving g2, which shares its high half with g1.
// g2 stays unpinned, so the next merge claims it and folds in place — but
// only into the low half it owns: the high half, touched now, is still
// g1's and must be copied. Dropping the mask would fold those partitions
// in place and change g1's answers.
func TestInPlaceOwnershipAcrossGenerations(t *testing.T) {
	const bits = 2
	s := New(Config{Shards: 1, SealRows: 1 << 10, MergeBits: bits, DisableMerger: true})
	defer s.Close()
	all := halfKeys(6_000, bits, 0, 1<<bits)
	appendSealed(t, s, all, all)
	s.MergeNow()

	sn1 := s.Snapshot()
	g1 := sn1.v.base
	want := answers(sn1)

	low := halfKeys(3_000, bits, 0, 1<<(bits-1))
	appendSealed(t, s, low, low)
	s.MergeNow()
	g2 := s.view.Load().base
	for q := range g2.parts {
		shared := g2.parts[q].T == g1.parts[q].T
		if high := q >= 1<<(bits-1); shared != high || g2.owned[q] != !high {
			t.Fatalf("g2 partition %d: shared with g1 %v, owned %v", q, shared, g2.owned[q])
		}
	}

	inPlace, copied := s.m.mergeInPlace.Value(), s.m.mergeCopied.Value()
	high := halfKeys(3_000, bits, 1<<(bits-1), 1<<bits)
	appendSealed(t, s, high, high)
	s.MergeNow()
	if d := s.m.mergeCopied.Value() - copied; d != 1<<(bits-1) {
		t.Fatalf("merge into g2's shared half copied %d partitions, want %d", d, 1<<(bits-1))
	}
	if d := s.m.mergeInPlace.Value() - inPlace; d != 0 {
		t.Fatalf("merge into g2's shared half folded %d partitions in place, want 0", d)
	}
	if got := answers(sn1); !reflect.DeepEqual(got, want) {
		t.Fatal("g1's answers changed after a merge into a generation sharing its partitions")
	}
	if total := sumCounts(answers(s.Snapshot()).Q1); total != uint64(len(all)+len(low)+len(high)) {
		t.Fatalf("current snapshot counts %d rows, want %d", total, len(all)+len(low)+len(high))
	}
}

// TestMergePartsCounters walks the two merge counters through the three
// cases an operator reads them for: merges with no reader fold in place,
// a merge after a Snapshot copies, and the merge after that is in place
// again. Every round appends the same keys, so every round touches the
// same partitions. Both counters are served on the stream's metrics
// registry.
func TestMergePartsCounters(t *testing.T) {
	const bits = 2
	s := New(Config{Shards: 1, SealRows: 1 << 10, MergeBits: bits, DisableMerger: true})
	defer s.Close()
	keys := halfKeys(2_000, bits, 0, 1<<bits)
	round := func() (inPlace, copied uint64) {
		i0, c0 := s.m.mergeInPlace.Value(), s.m.mergeCopied.Value()
		appendSealed(t, s, keys, keys)
		if !s.MergeNow() {
			t.Fatal("nothing to merge")
		}
		return s.m.mergeInPlace.Value() - i0, s.m.mergeCopied.Value() - c0
	}
	const parts = 1 << bits
	if i, c := round(); i != 0 || c != 0 {
		t.Fatalf("first merge (no base yet): in place %d, copied %d; want 0, 0", i, c)
	}
	if i, c := round(); i != parts || c != 0 {
		t.Fatalf("merge with no snapshot: in place %d, copied %d; want %d, 0", i, c, parts)
	}
	s.Snapshot()
	if i, c := round(); i != 0 || c != parts {
		t.Fatalf("merge after a snapshot: in place %d, copied %d; want 0, %d", i, c, parts)
	}
	if i, c := round(); i != parts || c != 0 {
		t.Fatalf("the following merge: in place %d, copied %d; want %d, 0", i, c, parts)
	}
	var buf bytes.Buffer
	obs.WritePrometheus(&buf, s.Registry())
	for _, line := range []string{
		fmt.Sprintf("memagg_stream_merge_parts_in_place_total %d", 2*parts),
		fmt.Sprintf("memagg_stream_merge_parts_copied_total %d", parts),
	} {
		if !strings.Contains(buf.String(), line+"\n") {
			t.Fatalf("metrics lack %q", line)
		}
	}
}

// TestRedundantCheckpointLeavesBaseFree: a checkpoint ring that finds
// nothing new to write must not pin the base. A reopened stream's base is
// exactly its checkpoint, so a checkpoint run right after Open is
// redundant; the next merge must still fold in place.
func TestRedundantCheckpointLeavesBaseFree(t *testing.T) {
	const bits = 2
	fs := wal.NewMemFS()
	cfg := durableConfig(fs, 1<<30)
	cfg.MergeBits, cfg.DisableMerger = bits, true
	keys := halfKeys(2_000, bits, 0, 1<<bits)
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	appendSealed(t, s, keys, keys)
	s.MergeNow()
	if err := s.Close(); err != nil { // final checkpoint
		t.Fatal(err)
	}
	r, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got, want := r.view.Load().base.rows, r.dur.lastCkptWM.Load(); got != want {
		t.Fatalf("reopened base at %d rows, last checkpoint at %d", got, want)
	}
	r.checkpointOnce()
	if st := r.view.Load().base.state.Load(); st != genFree {
		t.Fatalf("redundant checkpoint left the base in state %d, want free", st)
	}
	appendSealed(t, r, keys, keys)
	if !r.MergeNow() {
		t.Fatal("nothing to merge")
	}
	if i, c := r.m.mergeInPlace.Value(), r.m.mergeCopied.Value(); i != 1<<bits || c != 0 {
		t.Fatalf("merge after a redundant checkpoint: in place %d, copied %d; want %d, 0", i, c, 1<<bits)
	}
}

// TestInPlaceReadersRaceMerger: K readers snapshot continuously while a
// producer appends and the background merger folds — in place whenever
// no reader holds the base. With one shard the watermark W covers exactly
// the first W rows, so every snapshot must count W rows in Q1 and match
// the Q1 checksum Σ count·Mix(key) of that prefix.
func TestInPlaceReadersRaceMerger(t *testing.T) {
	spec := dataset.Spec{Kind: dataset.RseqShf, N: 80_000, Cardinality: 8_000, Seed: 223}
	keys := spec.Keys()
	vals := dataset.Values(len(keys), spec.Seed)
	prefix := make([]uint64, len(keys)+1) // prefix[w] = Σ Mix(keys[:w])
	for i, k := range keys {
		prefix[i+1] = prefix[i] + hashtbl.Mix(k)
	}
	s := New(Config{Shards: 1, SealRows: 1 << 10, MergeBits: 4, queryWorkers: 2})

	stop := make(chan struct{})
	errs := make(chan error, 4)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				sn := s.Snapshot()
				w := sn.Watermark()
				var total, sum uint64
				for _, r := range sn.CountByKey() {
					total += r.Count
					sum += r.Count * hashtbl.Mix(r.Key)
				}
				if total != w || sum != prefix[w] {
					errs <- fmt.Errorf("snapshot at watermark %d: Q1 counts %d rows, checksum %x want %x", w, total, sum, prefix[w])
					return
				}
			}
		}()
	}
	// Every few chunks the producer flushes and merges itself (MergeNow
	// serializes with the background merger), so merges interleave with
	// the readers' pins however the scheduler treats the merger goroutine.
	const batchLen = 977
	for off := 0; off < len(keys); off += batchLen {
		end := min(off+batchLen, len(keys))
		if err := s.AppendChunk(agg.Chunk{Keys: keys[off:end], Vals: vals[off:end]}); err != nil {
			t.Fatal(err)
		}
		if (off/batchLen)%3 == 2 {
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
			s.MergeNow()
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	sn := s.Snapshot()
	if sn.Watermark() != uint64(len(keys)) {
		t.Fatalf("final watermark %d, want %d", sn.Watermark(), len(keys))
	}
	t.Logf("merges %d: partitions in place %d, copied %d",
		s.m.merges.Value(), s.m.mergeInPlace.Value(), s.m.mergeCopied.Value())
}

// TestInPlaceCheckpointRacesMerges: on a durable stream the checkpointer
// pins each base it serializes while the merger keeps folding — in place
// into every base no checkpoint or snapshot holds. A low cadence makes
// checkpoints race merges throughout; every crash image taken on the way
// must recover an exact prefix, and the reopened stream must answer
// exactly what the batch engines answer over every row, as the closed one
// did.
func TestInPlaceCheckpointRacesMerges(t *testing.T) {
	spec := dataset.Spec{Kind: dataset.RseqShf, N: 24_000, Cardinality: 8_000, Seed: 227}
	keys := spec.Keys()
	vals := dataset.Values(len(keys), spec.Seed)
	fs := wal.NewMemFS()
	cfg := durableConfig(fs, 1_024)
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Each step ends with a merge, whose install rings the checkpointer;
	// the checkpoint then runs beside the next step's ingest and merges.
	// Every other step waits until no checkpoint is owed, so checkpoints
	// keep pace however the scheduler treats their goroutine. The crash
	// image taken after each step recovers from whichever checkpoint was
	// current: one written while a merge folded in place into the base it
	// serialized would carry rows past its watermark, and replay would
	// count them twice.
	var images []*wal.MemFS
	for step, off := 0, 0; off < len(keys); step, off = step+1, off+1_500 {
		end := min(off+1_500, len(keys))
		if err := ingestUntilError(s, keys[off:end], vals[off:end]); err != nil {
			t.Fatal(err)
		}
		s.MergeNow()
		owed := func() bool { return s.view.Load().base.rows-s.dur.lastCkptWM.Load() >= 1_024 }
		for deadline := time.Now().Add(10 * time.Second); step%2 == 1 && owed(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("step %d: checkpointer a cadence behind for 10s", step)
			}
		}
		images = append(images, fs.Clone())
	}
	for i, img := range images {
		checkRecoveredPrefix(t, fmt.Sprintf("crash image %d", i), img, 1_024, keys, vals)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s.m.mergeInPlace.Value() == 0 {
		t.Fatal("no merge folded in place beside the checkpointer")
	}
	closed := queryAll(t, s.Snapshot(), 0, ^uint64(0))
	checkAgainstBatch(t, "closed", s.Snapshot(), keys, vals)

	r, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	checkAgainstBatch(t, "reopened", r.Snapshot(), keys, vals)
	reopened := queryAll(t, r.Snapshot(), 0, ^uint64(0))
	if reopened.Watermark != closed.Watermark || reopened.Groups != closed.Groups || reopened.Q5 != closed.Q5 {
		t.Fatalf("reopened watermark/groups/avg %d/%d/%v, closed %d/%d/%v",
			reopened.Watermark, reopened.Groups, reopened.Q5, closed.Watermark, closed.Groups, closed.Q5)
	}
}
