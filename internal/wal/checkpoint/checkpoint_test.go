package checkpoint

import (
	"encoding/binary"
	"errors"
	"path/filepath"
	"runtime"
	"testing"
	"unsafe"

	"memagg/internal/agg"
	"memagg/internal/wal"
)

// testParts builds deterministic partition tables: partition q holds keys
// q*100+i for i in [0, q+1), group i observing (and, holistic, buffering)
// the values i..2i.
func testParts(meta Meta) []agg.Table {
	parts := make([]agg.Table, meta.Parts())
	for q := range parts {
		tb := agg.NewTable(q + 1)
		for i := 0; i <= q; i++ {
			p := tb.T.Upsert(uint64(q*100 + i))
			for v := i; v <= 2*i; v++ {
				p.Observe(uint64(v))
				if meta.Holistic {
					p.Buffer(tb.Ar, uint64(v))
				}
			}
		}
		parts[q] = tb
	}
	return parts
}

// writeCheckpoint writes a full checkpoint of testParts(meta).
func writeCheckpoint(t *testing.T, fs wal.FS, root string, meta Meta) {
	t.Helper()
	w, err := NewWriter(fs, root, meta)
	if err != nil {
		t.Fatal(err)
	}
	for q, tb := range testParts(meta) {
		if err := w.WritePartition(q, tb); err != nil {
			t.Fatalf("partition %d: %v", q, err)
		}
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
}

// sameTable reports whether two tables hold the same groups with the same
// eager state and value multisets.
func sameTable(got, want agg.Table) bool {
	if got.Len() != want.Len() {
		return false
	}
	same := true
	if want.T != nil {
		want.T.Iterate(func(k uint64, wp *agg.Partial) bool {
			gp := got.T.Get(k)
			if gp == nil || !samePartial(gp, wp) {
				same = false
				return false
			}
			gv := gp.AppendValues(got.Ar, nil)
			wv := wp.AppendValues(want.Ar, nil)
			same = len(gv) == len(wv)
			for i := 0; same && i < len(gv); i++ {
				same = gv[i] == wv[i]
			}
			return same
		})
	}
	return same
}

// samePartial compares the eager state (the value lists live in different
// arenas, so the structs differ in their list indices).
func samePartial(a, b *agg.Partial) bool {
	amin, aok := a.Min()
	bmin, bok := b.Min()
	amax, _ := a.Max()
	bmax, _ := b.Max()
	return a.Count() == b.Count() && a.Sum() == b.Sum() && aok == bok && amin == bmin && amax == bmax
}

func checkLoaded(t *testing.T, meta *Meta, parts []agg.Table, want Meta) {
	t.Helper()
	if meta == nil {
		t.Fatal("no checkpoint loaded")
	}
	if meta.Seq != want.Seq || meta.Watermark != want.Watermark ||
		meta.Bits != want.Bits || meta.Holistic != want.Holistic {
		t.Fatalf("meta %+v, want %+v", *meta, want)
	}
	if len(parts) != want.Parts() {
		t.Fatalf("%d partitions, want %d", len(parts), want.Parts())
	}
	for q, tb := range testParts(want) {
		if !sameTable(parts[q], tb) {
			t.Fatalf("partition %d: loaded table differs from the written one", q)
		}
		if !want.Holistic {
			parts[q].T.Iterate(func(k uint64, p *agg.Partial) bool {
				if p.Buffered() != 0 {
					t.Fatalf("non-holistic checkpoint carried values for key %d", k)
				}
				return true
			})
		}
	}
}

func TestWriteLoadRoundTrip(t *testing.T) {
	for _, holistic := range []bool{false, true} {
		fs := wal.NewMemFS()
		meta := Meta{Seq: 3, Watermark: 12345, Bits: 2, Holistic: holistic}
		writeCheckpoint(t, fs, "ck", meta)
		got, parts, err := Load(fs, "ck")
		if err != nil {
			t.Fatalf("holistic=%v: %v", holistic, err)
		}
		checkLoaded(t, got, parts, meta)
	}
}

func TestLoadEmptyRoot(t *testing.T) {
	meta, parts, err := Load(wal.NewMemFS(), "nothing")
	if meta != nil || parts != nil || err != nil {
		t.Fatalf("empty root: %v %v %v, want all nil", meta, parts, err)
	}
}

func TestCommitSupersedesPrevious(t *testing.T) {
	fs := wal.NewMemFS()
	writeCheckpoint(t, fs, "ck", Meta{Seq: 1, Watermark: 100, Bits: 1})
	writeCheckpoint(t, fs, "ck", Meta{Seq: 2, Watermark: 200, Bits: 1})
	meta, parts, err := Load(fs, "ck")
	if err != nil {
		t.Fatal(err)
	}
	checkLoaded(t, meta, parts, Meta{Seq: 2, Watermark: 200, Bits: 1})
	// The superseded directory is gone.
	if names, _ := fs.ReadDir("ck"); len(names) != 0 {
		for _, n := range names {
			if n == ckptDirName(1) {
				t.Fatalf("stale checkpoint dir survived: %v", names)
			}
		}
	}
}

func TestUncommittedCheckpointInvisible(t *testing.T) {
	fs := wal.NewMemFS()
	writeCheckpoint(t, fs, "ck", Meta{Seq: 1, Watermark: 100, Bits: 1})
	// A second checkpoint that crashes before Commit: runs written, no
	// CURRENT swap.
	w, err := NewWriter(fs, "ck", Meta{Seq: 2, Watermark: 200, Bits: 1})
	if err != nil {
		t.Fatal(err)
	}
	for q := 0; q < 2; q++ {
		if err := w.WritePartition(q, agg.Table{}); err != nil {
			t.Fatal(err)
		}
	}
	// No Commit. Load still sees checkpoint 1.
	meta, parts, err := Load(fs, "ck")
	if err != nil {
		t.Fatal(err)
	}
	checkLoaded(t, meta, parts, Meta{Seq: 1, Watermark: 100, Bits: 1})
}

func TestCorruptRunDetected(t *testing.T) {
	fs := wal.NewMemFS()
	meta := Meta{Seq: 1, Watermark: 50, Bits: 2}
	writeCheckpoint(t, fs, "ck", meta)
	name := filepath.Join("ck", ckptDirName(1), partName(2))
	data := fs.Bytes(name)
	if data == nil {
		t.Fatal("run file missing")
	}
	data[len(data)-1] ^= 0x01
	fs.SetBytes(name, data)
	if _, _, err := Load(fs, "ck"); !errors.Is(err, wal.ErrWALCorrupt) {
		t.Fatalf("load of corrupt run: %v, want ErrWALCorrupt", err)
	}
}

func TestCorruptMetaDetected(t *testing.T) {
	fs := wal.NewMemFS()
	writeCheckpoint(t, fs, "ck", Meta{Seq: 1, Watermark: 50, Bits: 1})
	name := filepath.Join("ck", ckptDirName(1), metaName)
	data := fs.Bytes(name)
	data[len(data)-3] ^= 0xff
	fs.SetBytes(name, data)
	if _, _, err := Load(fs, "ck"); !errors.Is(err, wal.ErrWALCorrupt) {
		t.Fatalf("load of corrupt META: %v, want ErrWALCorrupt", err)
	}
}

func TestMissingRunDetected(t *testing.T) {
	fs := wal.NewMemFS()
	writeCheckpoint(t, fs, "ck", Meta{Seq: 1, Watermark: 50, Bits: 2})
	if err := fs.Remove(filepath.Join("ck", ckptDirName(1), partName(1))); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Load(fs, "ck"); !errors.Is(err, wal.ErrWALCorrupt) {
		t.Fatalf("load with missing run: %v, want ErrWALCorrupt", err)
	}
}

func TestFaultDuringCommitKeepsPrevious(t *testing.T) {
	mem := wal.NewMemFS()
	writeCheckpoint(t, mem, "ck", Meta{Seq: 1, Watermark: 100, Bits: 1})
	// Checkpoint 2 dies on the CURRENT rename — the commit point itself.
	efs := wal.NewErrFS(mem)
	efs.FailAfter(wal.OpRename, 1)
	w, err := NewWriter(efs, "ck", Meta{Seq: 2, Watermark: 200, Bits: 1})
	if err != nil {
		t.Fatal(err)
	}
	for q := 0; q < 2; q++ {
		if err := w.WritePartition(q, agg.Table{}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Commit(); !errors.Is(err, wal.ErrInjected) {
		t.Fatalf("commit across fault: %v, want ErrInjected", err)
	}
	// Reload on the inner FS: checkpoint 1 intact.
	meta, parts, err := Load(mem, "ck")
	if err != nil {
		t.Fatal(err)
	}
	checkLoaded(t, meta, parts, Meta{Seq: 1, Watermark: 100, Bits: 1})
}

func TestLoadFailsOnCurrentOpenError(t *testing.T) {
	// A CURRENT that exists but cannot be opened is NOT "no checkpoint":
	// booting empty would silently drop every checkpointed row (the WAL
	// below the watermark is already truncated).
	mem := wal.NewMemFS()
	writeCheckpoint(t, mem, "ck", Meta{Seq: 1, Watermark: 100, Bits: 1})
	efs := wal.NewErrFS(mem)
	efs.FailAfter(wal.OpOpen, 1)
	if _, _, err := Load(efs, "ck"); !errors.Is(err, wal.ErrInjected) {
		t.Fatalf("Load with failing CURRENT open: %v, want ErrInjected", err)
	}
}

func TestLargePartitionChunksAcrossFrames(t *testing.T) {
	fs := wal.NewMemFS()
	meta := Meta{Seq: 1, Watermark: 7, Bits: 1}
	w, err := NewWriter(fs, "ck", meta)
	if err != nil {
		t.Fatal(err)
	}
	const n = 150_000 // 150k groups x 40 B = 6 MB: crosses agg.RunFrameBytes
	big := agg.NewTable(n)
	for i := 0; i < n; i++ {
		big.T.Upsert(uint64(i)).Observe(uint64(2 * i))
	}
	if err := w.WritePartition(0, big); err != nil {
		t.Fatal(err)
	}
	if err := w.WritePartition(1, agg.Table{}); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	// The run really is chunked: its first frame ends before the file does.
	data := fs.Bytes(filepath.Join("ck", ckptDirName(1), partName(0)))
	first := 8 + int(binary.LittleEndian.Uint32(data[0:4]))
	if first >= len(data) {
		t.Fatalf("run fit one frame (%d of %d bytes): chunking not exercised", first, len(data))
	}
	got, parts, err := Load(fs, "ck")
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != 1 || got.Groups != n {
		t.Fatalf("meta %+v, want seq 1 with %d groups", *got, n)
	}
	if parts[0].Len() != n || parts[1].Len() != 0 {
		t.Fatalf("partition sizes %d/%d, want %d/0", parts[0].Len(), parts[1].Len(), n)
	}
	if !sameTable(parts[0], big) {
		t.Fatal("chunked partition differs from the written one")
	}
}

func TestOversizedGroupFailsCheckpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("allocates ~130 MB")
	}
	// A single group whose encoding cannot fit one frame must fail the
	// write (so the checkpoint is skipped and the WAL keeps the data),
	// never commit a run that ReadFrame will reject as corrupt.
	fs := wal.NewMemFS()
	w, err := NewWriter(fs, "ck", Meta{Seq: 1, Watermark: 1, Bits: 1, Holistic: true})
	if err != nil {
		t.Fatal(err)
	}
	huge := agg.NewTable(1)
	p := huge.T.Upsert(1)
	for i := 0; i < wal.MaxFrame/8+1; i++ {
		p.Observe(0)
		p.Buffer(huge.Ar, 0)
	}
	if err := w.WritePartition(0, huge); err == nil {
		t.Fatal("oversized group framed without error")
	}
}

// TestCheckpointLoadAllocBound: Load allocates the tables it returns plus
// at most twice the checkpoint's on-disk bytes — the decoded frames and one
// shared read buffer. A per-file read buffer would cost its full size for
// every run however small the run is, which at 64 partitions of ~40 KB is
// an order of magnitude over the bound.
func TestCheckpointLoadAllocBound(t *testing.T) {
	const groupsPerPart = 1024
	fs := wal.NewMemFS()
	meta := Meta{Seq: 1, Watermark: 1 << 20, Bits: 6}
	w, err := NewWriter(fs, "ck", meta)
	if err != nil {
		t.Fatal(err)
	}
	for q := 0; q < meta.Parts(); q++ {
		tb := agg.NewTable(groupsPerPart)
		for i := 0; i < groupsPerPart; i++ {
			k := uint64(q*groupsPerPart + i)
			p := tb.T.Upsert(k)
			p.Observe(k)
			p.Observe(k + 15)
		}
		if err := w.WritePartition(q, tb); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join("ck", ckptDirName(meta.Seq))
	names, err := fs.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var disk int64
	for _, n := range names {
		sz, err := fs.Size(filepath.Join(dir, n))
		if err != nil {
			t.Fatal(err)
		}
		disk += sz
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	got, parts, err := Load(fs, "ck")
	runtime.ReadMemStats(&after)
	if err != nil || got == nil {
		t.Fatalf("load: meta %v, err %v", got, err)
	}
	if n := agg.Groups(parts); n != meta.Parts()*groupsPerPart {
		t.Fatalf("loaded %d groups, want %d", n, meta.Parts()*groupsPerPart)
	}
	var tables uint64
	for _, tb := range parts {
		tables += uint64(tb.T.Cap()) * uint64(8+unsafe.Sizeof(agg.Partial{}))
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	if limit := tables + 2*uint64(disk); alloc > limit {
		t.Fatalf("Load allocated %d bytes for a %d-byte checkpoint decoded into %d bytes of tables, want <= tables + 2x disk",
			alloc, disk, tables)
	}
	t.Logf("Load allocated %d bytes: %d of tables + %.2fx the %d-byte checkpoint",
		alloc, tables, float64(alloc-min(alloc, tables))/float64(disk), disk)
}
