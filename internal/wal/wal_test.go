package wal

import (
	"errors"
	"testing"

	"memagg/internal/obs"
)

// appendRows appends n single-row records to l, continuing from watermark
// wm, and returns the new watermark. Row i carries key=i, val=i*10 so a
// replay can verify content, not just count.
func appendRows(t *testing.T, l *Log, wm uint64, n int) uint64 {
	t.Helper()
	for i := 0; i < n; i++ {
		wm++
		rec := Record{EndWatermark: wm, Keys: []uint64{wm}, Vals: []uint64{wm * 10}}
		if err := l.Append(rec); err != nil {
			t.Fatalf("append at wm %d: %v", wm, err)
		}
	}
	return wm
}

// collectReplay returns a replay func that gathers every record's rows.
func collectReplay(keys *[]uint64) func(Record) error {
	return func(r Record) error {
		*keys = append(*keys, r.Keys...)
		return nil
	}
}

// checkPrefix asserts keys are exactly 1..n.
func checkPrefix(t *testing.T, keys []uint64, n int) {
	t.Helper()
	if len(keys) != n {
		t.Fatalf("replayed %d rows, want %d", len(keys), n)
	}
	for i, k := range keys {
		if k != uint64(i+1) {
			t.Fatalf("row %d: key %d, want %d", i, k, i+1)
		}
	}
}

func TestAppendReopenReplay(t *testing.T) {
	fs := NewMemFS()
	l, err := Open("wal", Options{FS: fs, SyncPolicy: SyncAlways}, nil)
	if err != nil {
		t.Fatal(err)
	}
	wm := appendRows(t, l, 0, 100)
	if got := l.LastWatermark(); got != wm {
		t.Fatalf("LastWatermark %d, want %d", got, wm)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	var keys []uint64
	l2, err := Open("wal", Options{FS: fs}, collectReplay(&keys))
	if err != nil {
		t.Fatal(err)
	}
	checkPrefix(t, keys, 100)
	if got := l2.LastWatermark(); got != 100 {
		t.Fatalf("recovered watermark %d, want 100", got)
	}
	// The reopened log keeps accepting appends where it left off.
	appendRows(t, l2, 100, 10)
	l2.Close()

	keys = nil
	l3, err := Open("wal", Options{FS: fs}, collectReplay(&keys))
	if err != nil {
		t.Fatal(err)
	}
	checkPrefix(t, keys, 110)
	l3.Close()
}

func TestRotationAndTruncateBelow(t *testing.T) {
	fs := NewMemFS()
	// ~32 bytes per 1-row record: rotate every few records.
	l, err := Open("wal", Options{FS: fs, SegmentBytes: 128}, nil)
	if err != nil {
		t.Fatal(err)
	}
	appendRows(t, l, 0, 50)
	if n := l.Segments(); n < 3 {
		t.Fatalf("got %d segments, want rotation to have produced several", n)
	}
	segsBefore := l.Segments()
	if err := l.TruncateBelow(25); err != nil {
		t.Fatal(err)
	}
	if n := l.Segments(); n >= segsBefore {
		t.Fatalf("TruncateBelow dropped nothing: %d -> %d segments", segsBefore, n)
	}
	l.Close()

	// Replay after truncation starts past the dropped segments; SkipBelow
	// mirrors the checkpoint watermark so continuity starts clean.
	var keys []uint64
	l2, err := Open("wal", Options{FS: fs, SkipBelow: 25}, collectReplay(&keys))
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(keys) == 0 || keys[len(keys)-1] != 50 {
		t.Fatalf("replay after truncation ended at %v, want tail ending in 50", keys)
	}
	for i := 1; i < len(keys); i++ {
		if keys[i] != keys[i-1]+1 {
			t.Fatalf("replay gap: %d then %d", keys[i-1], keys[i])
		}
	}
	if got := l2.LastWatermark(); got != 50 {
		t.Fatalf("recovered watermark %d, want 50", got)
	}
}

func TestCorruptTailTruncates(t *testing.T) {
	fs := NewMemFS()
	l, err := Open("wal", Options{FS: fs, SyncPolicy: SyncAlways}, nil)
	if err != nil {
		t.Fatal(err)
	}
	appendRows(t, l, 0, 20)
	l.Close()

	// Flip one bit in the last record's payload: CRC fails, recovery keeps
	// the 19-record prefix.
	name := join("wal", segName(1))
	data := fs.Bytes(name)
	data[len(data)-1] ^= 0x40
	fs.SetBytes(name, data)

	var keys []uint64
	l2, err := Open("wal", Options{FS: fs}, collectReplay(&keys))
	if err != nil {
		t.Fatal(err)
	}
	checkPrefix(t, keys, 19)
	// The tail was repaired: appends continue from the recovered watermark.
	appendRows(t, l2, 19, 5)
	l2.Close()

	keys = nil
	l3, err := Open("wal", Options{FS: fs}, collectReplay(&keys))
	if err != nil {
		t.Fatal(err)
	}
	checkPrefix(t, keys, 24)
	l3.Close()
}

func TestTornTailTruncates(t *testing.T) {
	fs := NewMemFS()
	l, err := Open("wal", Options{FS: fs, SyncPolicy: SyncAlways}, nil)
	if err != nil {
		t.Fatal(err)
	}
	appendRows(t, l, 0, 10)
	l.Close()

	// Cut mid-frame: a torn final write.
	name := join("wal", segName(1))
	data := fs.Bytes(name)
	fs.SetBytes(name, data[:len(data)-7])

	var keys []uint64
	l2, err := Open("wal", Options{FS: fs}, collectReplay(&keys))
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	checkPrefix(t, keys, 9)
}

func TestCorruptMiddleDropsLaterSegments(t *testing.T) {
	fs := NewMemFS()
	l, err := Open("wal", Options{FS: fs, SegmentBytes: 128}, nil)
	if err != nil {
		t.Fatal(err)
	}
	appendRows(t, l, 0, 40)
	if l.Segments() < 3 {
		t.Fatalf("want >=3 segments, got %d", l.Segments())
	}
	l.Close()

	// Corrupt the first record of the first segment: the whole log after
	// that point is unreachable — prefix semantics, not per-segment repair.
	name := join("wal", segName(1))
	data := fs.Bytes(name)
	data[FrameHeader+1] ^= 0xff
	fs.SetBytes(name, data)

	var keys []uint64
	l2, err := Open("wal", Options{FS: fs}, collectReplay(&keys))
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(keys) != 0 {
		t.Fatalf("replayed %d rows past a corrupt first record, want 0", len(keys))
	}
	if l2.Segments() != 1 {
		t.Fatalf("later segments kept after mid-log corruption: %d live", l2.Segments())
	}
}

func TestWatermarkGapTruncates(t *testing.T) {
	fs := NewMemFS()
	l, err := Open("wal", Options{FS: fs, SyncPolicy: SyncAlways}, nil)
	if err != nil {
		t.Fatal(err)
	}
	appendRows(t, l, 0, 5)
	// A record whose watermark skips ahead: individually valid frame, but
	// recovery must reject it for breaking continuity.
	if err := l.Append(Record{EndWatermark: 99, Keys: []uint64{99}, Vals: []uint64{0}}); err != nil {
		t.Fatal(err)
	}
	l.Close()

	var keys []uint64
	l2, err := Open("wal", Options{FS: fs}, collectReplay(&keys))
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	checkPrefix(t, keys, 5)
	if got := l2.LastWatermark(); got != 5 {
		t.Fatalf("recovered watermark %d, want 5", got)
	}
}

func TestInjectedWriteFailureIsSticky(t *testing.T) {
	mem := NewMemFS()
	efs := NewErrFS(mem)
	l, err := Open("wal", Options{FS: efs, SyncPolicy: SyncAlways}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Fail the 6th record write (manifest writes go through Create'd
	// handles too, so count actual record appends by arming late).
	appendRows(t, l, 0, 5)
	efs.FailAfter(OpWrite, 1)
	err = l.Append(Record{EndWatermark: 6, Keys: []uint64{6}, Vals: []uint64{60}})
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("append after arming: %v, want ErrInjected", err)
	}
	// Sticky: the log refuses further appends even though the fault fired.
	if err := l.Append(Record{EndWatermark: 7, Keys: []uint64{7}, Vals: []uint64{70}}); err == nil {
		t.Fatal("append after a failed write succeeded; torn tail would go undetected")
	}
	l.Close()

	// Reopen on the pristine inner FS: the 5 durable records survive.
	var keys []uint64
	l2, err := Open("wal", Options{FS: mem}, collectReplay(&keys))
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	checkPrefix(t, keys, 5)
}

func TestInjectedPartialWriteLeavesTornTail(t *testing.T) {
	mem := NewMemFS()
	efs := NewErrFS(mem)
	l, err := Open("wal", Options{FS: efs, SyncPolicy: SyncAlways}, nil)
	if err != nil {
		t.Fatal(err)
	}
	appendRows(t, l, 0, 8)
	efs.SetPartialWrites(true)
	efs.FailAfter(OpWrite, 1)
	if err := l.Append(Record{EndWatermark: 9, Keys: []uint64{9}, Vals: []uint64{90}}); err == nil {
		t.Fatal("tripping append succeeded")
	}
	l.Close()

	// Half a frame landed; recovery truncates it and keeps the 8-prefix.
	var keys []uint64
	l2, err := Open("wal", Options{FS: mem}, collectReplay(&keys))
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	checkPrefix(t, keys, 8)
}

func TestSyncPolicyParse(t *testing.T) {
	cases := []struct {
		in   string
		want SyncPolicy
		ok   bool
	}{
		{"none", SyncNone, true},
		{"interval", SyncInterval, true},
		{"", SyncInterval, true},
		{"always", SyncAlways, true},
		{"sometimes", 0, false},
	}
	for _, c := range cases {
		got, err := ParseSyncPolicy(c.in)
		if (err == nil) != c.ok || got != c.want {
			t.Errorf("ParseSyncPolicy(%q) = %v, %v; want %v, ok=%v", c.in, got, err, c.want, c.ok)
		}
	}
	for _, p := range []SyncPolicy{SyncNone, SyncInterval, SyncAlways} {
		back, err := ParseSyncPolicy(p.String())
		if err != nil || back != p {
			t.Errorf("round trip %v: got %v, %v", p, back, err)
		}
	}
}

func TestMultiRowRecords(t *testing.T) {
	fs := NewMemFS()
	l, err := Open("wal", Options{FS: fs, SyncPolicy: SyncAlways}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Records of varying width, as real seals produce.
	wm := uint64(0)
	widths := []int{1, 7, 1000, 3, 64}
	for _, w := range widths {
		keys := make([]uint64, w)
		vals := make([]uint64, w)
		for i := range keys {
			keys[i] = wm + uint64(i) + 1
			vals[i] = (wm + uint64(i) + 1) * 10
		}
		wm += uint64(w)
		if err := l.Append(Record{EndWatermark: wm, Keys: keys, Vals: vals}); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	var keys, vals []uint64
	l2, err := Open("wal", Options{FS: fs}, func(r Record) error {
		if len(r.Keys) != len(r.Vals) {
			t.Fatalf("record keys/vals mismatch: %d vs %d", len(r.Keys), len(r.Vals))
		}
		keys = append(keys, r.Keys...)
		vals = append(vals, r.Vals...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	checkPrefix(t, keys, int(wm))
	for i, v := range vals {
		if v != keys[i]*10 {
			t.Fatalf("row %d: val %d, want %d", i, v, keys[i]*10)
		}
	}
}

func TestResetBaseline(t *testing.T) {
	fs := NewMemFS()
	l, err := Open("wal", Options{FS: fs, SyncPolicy: SyncAlways, SegmentBytes: 256}, nil)
	if err != nil {
		t.Fatal(err)
	}
	appendRows(t, l, 0, 30) // tiny segments: several rotations
	if n := l.Segments(); n < 2 {
		t.Fatalf("expected multiple segments, got %d", n)
	}
	// At or below the current watermark: a no-op.
	if err := l.ResetBaseline(30); err != nil {
		t.Fatal(err)
	}
	if got := l.LastWatermark(); got != 30 {
		t.Fatalf("no-op reset moved watermark to %d", got)
	}
	// The checkpoint-ahead case: every surviving record is covered by the
	// checkpoint, so the log restarts empty at the checkpoint watermark.
	if err := l.ResetBaseline(50); err != nil {
		t.Fatal(err)
	}
	if got := l.LastWatermark(); got != 50 {
		t.Fatalf("reset watermark %d, want 50", got)
	}
	if n := l.Segments(); n != 1 {
		t.Fatalf("reset kept %d segments, want 1", n)
	}
	appendRows(t, l, 50, 5)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Recovery accepts the fresh baseline: no watermark-gap truncation.
	var keys []uint64
	l2, err := Open("wal", Options{FS: fs, SkipBelow: 50}, collectReplay(&keys))
	if err != nil {
		t.Fatal(err)
	}
	if got := l2.LastWatermark(); got != 55 {
		t.Fatalf("recovered watermark %d, want 55", got)
	}
	if len(keys) != 5 || keys[0] != 51 || keys[4] != 55 {
		t.Fatalf("replayed rows %v, want 51..55", keys)
	}
	l2.Close()
}

// TestAppendLatencyTimed: every Append records one AppendLat sample, and
// the sample encloses the append's fsync — under sync=always the append
// histogram's total can never be below the fsync histogram's.
func TestAppendLatencyTimed(t *testing.T) {
	reg := obs.NewRegistry()
	m := &Metrics{
		AppendLat: reg.NewHistogram("append_seconds", "test"),
		SyncLat:   reg.NewHistogram("fsync_seconds", "test"),
	}
	l, err := Open("wal", Options{FS: NewMemFS(), SyncPolicy: SyncAlways, Metrics: m}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	sync0 := m.SyncLat.Snapshot().SumNano // Open's own syncs, if any
	appendRows(t, l, 0, 20)
	app, syn := m.AppendLat.Snapshot(), m.SyncLat.Snapshot().SumNano-sync0
	if app.Count != 20 {
		t.Fatalf("append histogram holds %d samples, want 20", app.Count)
	}
	if app.SumNano < syn {
		t.Fatalf("appends total %d ns < their fsyncs' %d ns", app.SumNano, syn)
	}
}
