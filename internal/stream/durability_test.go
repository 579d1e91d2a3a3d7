package stream

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"memagg/internal/agg"
	"memagg/internal/cview"
	"memagg/internal/dataset"
	"memagg/internal/radix"
	"memagg/internal/wal"
	"memagg/internal/wal/checkpoint"
)

// durableConfig is the crash-gate configuration: one shard so publication
// order equals append order (recovered watermark W ⇒ exactly the first W
// input rows), small seals so a run exercises many WAL records, sync-always
// so every published seal is durable, and a low checkpoint cadence so runs
// cross checkpoint boundaries.
func durableConfig(fs wal.FS, checkpointEvery int) Config {
	return Config{
		Shards:    1,
		SealRows:  512,
		MergeBits: 4,
		Holistic:  true,
		Durability: Durability{
			Dir:             "data",
			FS:              fs,
			SyncPolicy:      wal.SyncAlways,
			segmentBytes:    8 << 10, // force rotations
			CheckpointEvery: checkpointEvery,
		},
	}
}

// gateData is the input the recovery tests replay: a skewed key set with
// enough rows for several seals, rotations and checkpoints.
func gateData() ([]uint64, []uint64) {
	spec := dataset.Spec{Kind: dataset.Zipf, N: 12_000, Cardinality: 300, Seed: 71}
	keys := spec.Keys()
	return keys, dataset.Values(len(keys), spec.Seed)
}

// ingestUntilError appends keys/vals in fixed-size batches with periodic
// flushes, stopping at the first error (the degradation point when a fault
// is armed). Returns the error, nil when the whole input went in.
func ingestUntilError(s *Stream, keys, vals []uint64) error {
	const batchRows = 300
	for off := 0; off < len(keys); off += batchRows {
		end := off + batchRows
		if end > len(keys) {
			end = len(keys)
		}
		if err := s.AppendChunk(agg.Chunk{Keys: keys[off:end], Vals: vals[off:end]}); err != nil {
			return err
		}
		if (off/batchRows)%3 == 2 {
			if err := s.Flush(); err != nil {
				return err
			}
		}
	}
	return s.Flush()
}

// checkRecoveredPrefix reopens the durability dir and asserts the
// recovered state is byte-for-byte the aggregate of the first W input rows
// for the recovered watermark W — the crash-recovery equivalence property.
func checkRecoveredPrefix(t *testing.T, label string, fs wal.FS, checkpointEvery int, keys, vals []uint64) uint64 {
	t.Helper()
	s, err := Open(durableConfig(fs, checkpointEvery))
	if err != nil {
		t.Fatalf("%s: reopen: %v", label, err)
	}
	defer s.Close()
	sn := s.Snapshot()
	w := sn.Watermark()
	if w > uint64(len(keys)) {
		t.Fatalf("%s: recovered watermark %d exceeds input %d", label, w, len(keys))
	}
	if w == 0 {
		if n := sn.Count(); n != 0 {
			t.Fatalf("%s: empty watermark but %d rows visible", label, n)
		}
		return 0
	}
	checkAgainstBatch(t, label, sn, keys[:w], vals[:w])
	return w
}

func TestDurableRoundTrip(t *testing.T) {
	keys, vals := gateData()
	fs := wal.NewMemFS()
	s, err := Open(durableConfig(fs, 3000))
	if err != nil {
		t.Fatal(err)
	}
	if err := ingestUntilError(s, keys, vals); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if !st.Durable || st.ReadOnly {
		t.Fatalf("stats: Durable=%v ReadOnly=%v", st.Durable, st.ReadOnly)
	}
	if st.WALAppends == 0 || st.WALFsyncs == 0 {
		t.Fatalf("no WAL activity recorded: %+v", st)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Graceful close wrote a final checkpoint covering everything.
	if cw := s.Stats().CheckpointWatermark; cw != uint64(len(keys)) {
		t.Fatalf("final checkpoint watermark %d, want %d", cw, len(keys))
	}
	if w := checkRecoveredPrefix(t, "round-trip", fs, 3000, keys, vals); w != uint64(len(keys)) {
		t.Fatalf("recovered watermark %d, want full %d", w, len(keys))
	}
}

func TestWALOnlyRecovery(t *testing.T) {
	// CheckpointEvery < 0: no checkpoints at all, recovery replays the
	// entire log.
	keys, vals := gateData()
	fs := wal.NewMemFS()
	s, err := Open(durableConfig(fs, -1))
	if err != nil {
		t.Fatal(err)
	}
	if err := ingestUntilError(s, keys, vals); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Checkpoints != 0 || st.CheckpointWatermark != 0 {
		t.Fatalf("WAL-only stream checkpointed: %+v", st)
	}
	if w := checkRecoveredPrefix(t, "wal-only", fs, -1, keys, vals); w != uint64(len(keys)) {
		t.Fatalf("recovered watermark %d, want full %d", w, len(keys))
	}
}

func TestReopenContinueReopen(t *testing.T) {
	// Restart mid-stream: checkpoint + WAL suffix must compose with rows
	// ingested after the reopen.
	keys, vals := gateData()
	half := len(keys) / 2
	fs := wal.NewMemFS()

	s, err := Open(durableConfig(fs, 3000))
	if err != nil {
		t.Fatal(err)
	}
	if err := ingestUntilError(s, keys[:half], vals[:half]); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(durableConfig(fs, 3000))
	if err != nil {
		t.Fatal(err)
	}
	if w := s2.Snapshot().Watermark(); w != uint64(half) {
		t.Fatalf("watermark after reopen %d, want %d", w, half)
	}
	if err := ingestUntilError(s2, keys[half:], vals[half:]); err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}

	if w := checkRecoveredPrefix(t, "reopen-continue", fs, 3000, keys, vals); w != uint64(len(keys)) {
		t.Fatalf("recovered watermark %d, want full %d", w, len(keys))
	}
}

// TestCrashRecoveryEquivalence is the kill-and-replay gate: a fault is
// injected at many different points — WAL writes, fsyncs, renames (which
// hit both segment-rotation manifests and checkpoint CURRENT swaps), with
// and without torn writes — and after each simulated crash the reopened
// stream must answer every Q1–Q7 exactly as a batch engine over the first
// W input rows, where W is whatever watermark recovery reports. The fault
// filesystem fails everything after the trip, so the bytes the reopen sees
// are exactly the bytes that reached "disk" before the crash.
func TestCrashRecoveryEquivalence(t *testing.T) {
	keys, vals := gateData()
	type scenario struct {
		op      wal.Op
		n       int
		partial bool
	}
	var scenarios []scenario
	for _, n := range []int{1, 2, 5, 12, 30} {
		scenarios = append(scenarios, scenario{op: wal.OpWrite, n: n})
	}
	scenarios = append(scenarios,
		scenario{op: wal.OpWrite, n: 3, partial: true},
		scenario{op: wal.OpWrite, n: 17, partial: true},
		scenario{op: wal.OpSync, n: 1},
		scenario{op: wal.OpSync, n: 8},
		// Renames: 1 hits the WAL's opening manifest swap; later counts hit
		// rotation manifests and checkpoint CURRENT swaps mid-run.
		scenario{op: wal.OpRename, n: 1},
		scenario{op: wal.OpRename, n: 2},
		scenario{op: wal.OpRename, n: 4},
		scenario{op: wal.OpCreate, n: 3},
	)

	for _, sc := range scenarios {
		label := fmt.Sprintf("crash/%v-%d/partial=%v", sc.op, sc.n, sc.partial)
		t.Run(label, func(t *testing.T) {
			mem := wal.NewMemFS()
			efs := wal.NewErrFS(mem)
			efs.SetPartialWrites(sc.partial)
			efs.FailAfter(sc.op, sc.n)

			s, err := Open(durableConfig(efs, 3000))
			if err != nil {
				// The fault fired during Open itself (e.g. the opening
				// manifest swap): nothing was acknowledged, recovery from
				// the untouched FS must yield the empty stream.
				if w := checkRecoveredPrefix(t, label, mem, 3000, keys, vals); w != 0 {
					t.Fatalf("rows recovered from a stream that never opened: %d", w)
				}
				return
			}
			ingestErr := ingestUntilError(s, keys, vals)
			if ingestErr != nil && !errors.Is(ingestErr, ErrDurability) {
				t.Fatalf("ingest failed with non-durability error: %v", ingestErr)
			}
			if ingestErr != nil {
				// Degraded, not closed: snapshots must still serve.
				if !s.ReadOnly() {
					t.Fatal("ingest refused but ReadOnly() is false")
				}
				_ = s.Snapshot().Count()
				if !s.Stats().ReadOnly {
					t.Fatal("Stats().ReadOnly is false on a degraded stream")
				}
			}
			// Close releases goroutines; the tripped FS swallows any further
			// writes, so this is equivalent to a hard kill as far as the
			// recovered bytes are concerned.
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}

			w := checkRecoveredPrefix(t, label, mem, 3000, keys, vals)
			if ingestErr == nil && w != uint64(len(keys)) {
				t.Fatalf("no fault observed during ingest but only %d/%d rows recovered", w, len(keys))
			}
		})
	}
}

// TestCorruptTailRecoversPrefix bit-flips the tail of a closed stream's
// WAL and asserts recovery serves the longest valid prefix — never an
// error, never wrong aggregates.
func TestCorruptTailRecoversPrefix(t *testing.T) {
	keys, vals := gateData()
	fs := wal.NewMemFS()
	s, err := Open(durableConfig(fs, -1)) // WAL-only: the log is the state
	if err != nil {
		t.Fatal(err)
	}
	if err := ingestUntilError(s, keys, vals); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Find the last (active) segment and flip a byte near its end.
	segs, err := fs.ReadDir("data/wal")
	if err != nil {
		t.Fatal(err)
	}
	var last string
	for _, n := range segs {
		if n != "MANIFEST" && (last == "" || n > last) {
			last = n
		}
	}
	name := "data/wal/" + last
	data := fs.Bytes(name)
	if len(data) == 0 {
		t.Fatalf("empty active segment %s", name)
	}
	data[len(data)-9] ^= 0x20
	fs.SetBytes(name, data)

	w := checkRecoveredPrefix(t, "corrupt-tail", fs, -1, keys, vals)
	if w == 0 || w >= uint64(len(keys)) {
		t.Fatalf("corrupt tail recovered watermark %d of %d, want a proper prefix", w, len(keys))
	}
}

// TestDegradedStreamKeepsServing pins down the graceful-degradation
// contract: after the WAL becomes unwritable, Append and Flush fail with
// ErrDurability (carrying the cause), queries and Stats keep working, and
// Close still succeeds.
func TestDegradedStreamKeepsServing(t *testing.T) {
	keys, vals := gateData()
	mem := wal.NewMemFS()
	efs := wal.NewErrFS(mem)
	s, err := Open(durableConfig(efs, -1))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AppendChunk(agg.Chunk{Keys: keys[:1000], Vals: vals[:1000]}); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	before := s.Snapshot().Watermark()

	efs.Cut() // disk dies now
	// Drive ingest until the seal path observes the failure.
	var ingestErr error
	for i := 0; i < 100 && ingestErr == nil; i++ {
		if err := s.AppendChunk(agg.Chunk{Keys: keys[:600], Vals: vals[:600]}); err != nil {
			ingestErr = err
			break
		}
		ingestErr = s.Flush()
	}
	if !errors.Is(ingestErr, ErrDurability) {
		t.Fatalf("ingest after disk failure: %v, want ErrDurability", ingestErr)
	}
	if !errors.Is(ingestErr, wal.ErrInjected) {
		t.Fatalf("degradation cause not carried: %v", ingestErr)
	}
	if !s.ReadOnly() {
		t.Fatal("ReadOnly() false after degradation")
	}
	if w := s.Snapshot().Watermark(); w < before {
		t.Fatalf("watermark went backwards after degradation: %d < %d", w, before)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Whatever was durable before the cut recovers cleanly.
	w := checkRecoveredPrefix(t, "degraded", mem, -1, keys, vals)
	if w < before {
		t.Fatalf("recovered %d rows, want at least the %d acknowledged before the cut", w, before)
	}
}

// TestHolisticMismatchRejected: a checkpoint written with holistic state
// cannot be opened by a non-holistic config (or vice versa) — the state
// shapes differ, and silently dropping value multisets would corrupt Q3.
func TestHolisticMismatchRejected(t *testing.T) {
	keys, vals := gateData()
	fs := wal.NewMemFS()
	s, err := Open(durableConfig(fs, 3000))
	if err != nil {
		t.Fatal(err)
	}
	if err := ingestUntilError(s, keys[:3000], vals[:3000]); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	cfg := durableConfig(fs, 3000)
	cfg.Holistic = false
	if _, err := Open(cfg); err == nil {
		t.Fatal("non-holistic Open of a holistic checkpoint succeeded")
	}
}

// TestCheckpointBadBitsRejected: a CRC-valid checkpoint whose META fan-out
// lies outside [1, agg.MaxPartBits] is corrupt. Past the bound the radix
// partitioner clamps, so adopting it would recover a base whose partitions
// later merges misroute keys into (double-counted groups, short counts);
// Load and Open must both refuse it with wal.ErrWALCorrupt.
func TestCheckpointBadBitsRejected(t *testing.T) {
	for _, bits := range []int{0, agg.MaxPartBits + 1} {
		fs := wal.NewMemFS()
		cfg := durableConfig(fs, -1)
		root := filepath.Join(cfg.Durability.Dir, "checkpoint")
		w, err := checkpoint.NewWriter(fs, root, checkpoint.Meta{Seq: 1, Watermark: 2000, Bits: bits, Holistic: true})
		if err != nil {
			t.Fatal(err)
		}
		// A complete checkpoint: every partition run, each group in its
		// PartitionIndex partition at the claimed fan-out.
		parts := make([]agg.Table, 1<<bits)
		for k := uint64(0); k < 2000; k++ {
			tb := &parts[radix.PartitionIndex(k, bits)]
			if tb.T == nil {
				*tb = agg.NewTable(1)
			}
			agg.AbsorbParts([]agg.Table{*tb}, nil, nil, []uint64{k}, []uint64{k}, true)
		}
		for q, tb := range parts {
			if err := w.WritePartition(q, tb); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Commit(); err != nil {
			t.Fatal(err)
		}
		if _, _, err := checkpoint.Load(fs, root); !errors.Is(err, wal.ErrWALCorrupt) {
			t.Errorf("bits=%d: Load err = %v, want ErrWALCorrupt", bits, err)
		}
		s, err := Open(cfg)
		if err == nil {
			s.Close()
		}
		if !errors.Is(err, wal.ErrWALCorrupt) {
			t.Errorf("bits=%d: Open err = %v, want ErrWALCorrupt", bits, err)
		}
	}
}

// TestNewPanicsOnDurableConfig: the volatile constructor must refuse a
// durable config instead of silently ignoring state on disk.
func TestNewPanicsOnDurableConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted a durable config")
		}
	}()
	New(Config{Durability: Durability{Dir: "data"}})
}

// TestCheckpointAheadOfWALRecovery reproduces the sync=none crash shape:
// the fsync'd checkpoint survived but the WAL's unsynced tail did not, so
// on reopen the checkpoint watermark is ahead of the recovered log. The
// reopened stream must restart the log at the checkpoint baseline —
// otherwise rows acknowledged (even fsync'd) after the reopen sit past a
// watermark gap that the NEXT recovery reads as corruption and silently
// truncates.
func TestCheckpointAheadOfWALRecovery(t *testing.T) {
	keys, vals := gateData()
	mem := wal.NewMemFS()
	s, err := Open(durableConfig(mem, 3000))
	if err != nil {
		t.Fatal(err)
	}
	if err := ingestUntilError(s, keys, vals); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil { // final checkpoint at len(keys)
		t.Fatal(err)
	}

	// Simulate the lost tail: replace the WAL with a log whose last record
	// sits far below the checkpoint watermark. (Its content is covered by
	// the checkpoint, so replay ignores it — only the watermark matters.)
	names, err := mem.ReadDir("data/wal")
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		if err := mem.Remove("data/wal/" + n); err != nil {
			t.Fatal(err)
		}
	}
	l, err := wal.Open("data/wal", wal.Options{FS: mem, SyncPolicy: wal.SyncAlways}, nil)
	if err != nil {
		t.Fatal(err)
	}
	stale := wal.Record{EndWatermark: 512, Keys: make([]uint64, 512), Vals: make([]uint64, 512)}
	if err := l.Append(stale); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: checkpoint watermark len(keys), log watermark 512. Ingest
	// more (fewer rows than the checkpoint cadence, so no background
	// checkpoint runs), then hard-kill — no graceful final checkpoint.
	const extra = 2000
	efs := wal.NewErrFS(mem)
	s2, err := Open(durableConfig(efs, 3000))
	if err != nil {
		t.Fatal(err)
	}
	if w := s2.Snapshot().Watermark(); w != uint64(len(keys)) {
		t.Fatalf("reopened watermark %d, want checkpoint %d", w, len(keys))
	}
	if err := ingestUntilError(s2, keys[:extra], vals[:extra]); err != nil {
		t.Fatal(err)
	}
	efs.Cut()
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}

	// Every post-reopen row was acknowledged under sync=always: the second
	// recovery must serve all of them, not truncate at the gap.
	keys2 := append(append([]uint64{}, keys...), keys[:extra]...)
	vals2 := append(append([]uint64{}, vals...), vals[:extra]...)
	w := checkRecoveredPrefix(t, "checkpoint-ahead", mem, 3000, keys2, vals2)
	if w != uint64(len(keys2)) {
		t.Fatalf("recovered watermark %d, want %d: acknowledged rows lost after checkpoint-ahead reopen", w, len(keys2))
	}
}

// TestRecoveryFoldsIntoBase pins the shape of a recovered stream: Open
// folds the WAL suffix straight into the base generation, so the stream
// boots with no sealed backlog and no merge owed, and still answers every
// query exactly as a stream that never crashed — with and without
// holistic state, with and without a checkpoint under the suffix, with
// and without a continuous view replaying alongside.
func TestRecoveryFoldsIntoBase(t *testing.T) {
	keys, vals := gateData()
	half := len(keys) / 2
	for _, holistic := range []bool{false, true} {
		for _, ckpt := range []bool{false, true} {
			for _, withView := range []bool{false, true} {
				name := fmt.Sprintf("holistic=%v/checkpoint=%v/view=%v", holistic, ckpt, withView)
				t.Run(name, func(t *testing.T) {
					checkRecoveryFoldsIntoBase(t, keys, vals, half, holistic, ckpt, withView)
				})
			}
		}
	}
}

func checkRecoveryFoldsIntoBase(t *testing.T, keys, vals []uint64, half int, holistic, ckpt, withView bool) {
	// No cadence checkpoint ever fires: with ckpt the only checkpoint is
	// the graceful close after the first half, so the WAL suffix is
	// exactly the second half; without, the WAL holds everything.
	every := -1
	if ckpt {
		every = 1 << 30
	}
	mem := wal.NewMemFS()
	efs := wal.NewErrFS(mem)
	cfg := func(fs wal.FS) Config {
		c := durableConfig(fs, every)
		c.Holistic = holistic
		return c
	}
	spec := cview.Spec{Name: "w", Query: agg.Query{ID: agg.QCountByKey}, PaneRows: 700, Panes: 3, Sliding: true}

	s, err := Open(cfg(efs))
	if err != nil {
		t.Fatal(err)
	}
	if withView {
		if err := s.RegisterView(spec); err != nil {
			t.Fatal(err)
		}
	}
	if err := ingestUntilError(s, keys[:half], vals[:half]); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	wantCkpt := uint64(0)
	if ckpt {
		wantCkpt = uint64(half)
	}
	if got := s.Stats().CheckpointWatermark; got != wantCkpt {
		t.Fatalf("checkpoint watermark %d after first half, want %d", got, wantCkpt)
	}

	s, err = Open(cfg(efs))
	if err != nil {
		t.Fatal(err)
	}
	if err := ingestUntilError(s, keys[half:], vals[half:]); err != nil {
		t.Fatal(err)
	}
	var before *cview.Result
	if withView {
		if before, err = s.ViewResult(spec.Name); err != nil {
			t.Fatal(err)
		}
	}
	efs.Cut() // hard kill: no final checkpoint, no pane snapshot
	_ = s.Close()

	r, err := Open(cfg(mem))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer r.Close()
	st := r.Stats()
	if st.SealedPending != 0 || st.Merges != 0 {
		t.Fatalf("recovered stream owes the merger: SealedPending=%d Merges=%d, want 0/0",
			st.SealedPending, st.Merges)
	}
	if st.Watermark != uint64(len(keys)) {
		t.Fatalf("recovered watermark %d, want %d", st.Watermark, len(keys))
	}

	ref := New(Config{Shards: 1, SealRows: 512, MergeBits: 4, Holistic: holistic})
	defer ref.Close()
	if err := ingestUntilError(ref, keys, vals); err != nil {
		t.Fatal(err)
	}
	got, want := r.Snapshot(), ref.Snapshot()
	for _, q := range equivQueries() {
		gv, gerr := got.Run(q)
		wv, werr := want.Run(q)
		if (gerr != nil) != (werr != nil) {
			t.Fatalf("%v: recovered err %v, reference err %v", q, gerr, werr)
		}
		if werr == nil && !reflect.DeepEqual(sortedValue(gv), sortedValue(wv)) {
			t.Fatalf("%v: recovered result differs from the never-crashed reference", q)
		}
	}

	if withView {
		after, err := r.ViewResult(spec.Name)
		if err != nil {
			t.Fatal(err)
		}
		if after.Truncated || after.WindowStart != before.WindowStart || after.WindowEnd != before.WindowEnd ||
			after.Rows != before.Rows || !reflect.DeepEqual(sortedValue(after.Value), sortedValue(before.Value)) {
			t.Fatalf("recovered view (%d, %d] rows %d truncated=%v, want pre-kill (%d, %d] rows %d and the same result",
				after.WindowStart, after.WindowEnd, after.Rows, after.Truncated,
				before.WindowStart, before.WindowEnd, before.Rows)
		}
	}
}

// TestParentFormatLoads: the on-disk state written before checkpoint runs
// and view PANES shared the group-run codec (testdata/parentfmt: a
// holistic stream with two views over the first 3,000 gate rows, closed
// gracefully, so a checkpoint plus a PANES snapshot) recovers under the
// shared codec to the same answers — Q1–Q7 and the holistic queries equal
// the batch engines over those rows, and both views equal the results
// recorded when the state was written.
func TestParentFormatLoads(t *testing.T) {
	// Recovery repairs the log in place: work on a copy.
	src, dir := filepath.Join("testdata", "parentfmt", "data"), filepath.Join(t.TempDir(), "data")
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dir, rel), 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dir, rel), b, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := durableConfig(wal.OSFS{}, 1<<30)
	cfg.Durability.Dir = dir
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if st := s.Stats(); st.CheckpointWatermark != 3000 {
		t.Fatalf("recovered checkpoint watermark %d, want 3000", st.CheckpointWatermark)
	}
	keys, vals := gateData()
	checkAgainstBatch(t, "parent format", s.Snapshot(), keys[:3000], vals[:3000])

	got := map[string]any{}
	for _, name := range []string{"p90", "counts"} {
		res, err := s.ViewResult(name)
		if err != nil {
			t.Fatal(err)
		}
		if res.Truncated {
			t.Fatalf("%s: restored view reports Truncated", name)
		}
		got[name] = []any{res.WindowStart, res.WindowEnd, res.Rows, res.Groups, sortedValue(res.Value)}
	}
	gotJSON, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "parentfmt", "views.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotJSON, want) {
		t.Fatalf("restored views differ from the results recorded at write time:\n got %.200s\nwant %.200s", gotJSON, want)
	}
}
