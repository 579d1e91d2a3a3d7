package wal

import (
	"bytes"
	"errors"
	"slices"
	"testing"
)

// TestRecordSegmentsEncodeIdentically pins the segment form of the record
// encoder: however a record's rows are split into column segments — empty
// segments, one-row segments, key and value splits that do not line up —
// the frame is byte-identical to the one-segment encoding and decodes to
// the same Record. A sealed delta logs its batches' columns as segments,
// so this is what keeps the on-disk format independent of batch sizes.
func TestRecordSegmentsEncodeIdentically(t *testing.T) {
	const n, endWM = 9, 1234
	keys, vals := make([]uint64, n), make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(i*7919) ^ 0xdeadbeef
		vals[i] = uint64(i) << 40
	}
	one := encodeRecord(nil, endWM, [][]uint64{keys}, [][]uint64{vals})

	// split cuts rows at the given offsets; repeated offsets make empty
	// segments.
	split := func(rows []uint64, cuts ...int) [][]uint64 {
		var segs [][]uint64
		lo := 0
		for _, c := range cuts {
			segs = append(segs, rows[lo:c])
			lo = c
		}
		return append(segs, rows[lo:])
	}
	var perRow []int
	for i := 1; i < n; i++ {
		perRow = append(perRow, i)
	}
	cases := []struct {
		name       string
		keys, vals [][]uint64
	}{
		{"empty segments", split(keys, 0, 0, 4, 4, n), split(vals, 0, 0, 4, 4, n)},
		{"one-row segments", split(keys, perRow...), split(vals, perRow...)},
		{"mixed", split(keys, 1, 1, 2, 6), split(vals, 1, 1, 2, 6)},
		{"unaligned splits", split(keys, 3), split(vals, 0, 1, 8)},
	}
	for _, c := range cases {
		got := encodeRecord(nil, endWM, c.keys, c.vals)
		if !bytes.Equal(got, one) {
			t.Fatalf("%s: segment encoding differs from the one-segment encoding", c.name)
		}
		rec, err := decodeRecord(got[FrameHeader:])
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if rec.EndWatermark != endWM || !slices.Equal(rec.Keys, keys) || !slices.Equal(rec.Vals, vals) {
			t.Fatalf("%s: decoded %+v, want keys %v vals %v at %d", c.name, rec, keys, vals, endWM)
		}
	}

	// An all-empty segment list is the zero-row record.
	empty := encodeRecord(nil, endWM, [][]uint64{{}, nil}, [][]uint64{nil})
	if want := encodeRecord(nil, endWM, nil, nil); !bytes.Equal(empty, want) {
		t.Fatal("empty segments encode differently from no segments")
	}
}

// TestAppendSegmentsMatchesAppend: a log written through AppendSegments
// holds the same bytes as one written through Append of the concatenated
// record, and replays the same rows.
func TestAppendSegmentsMatchesAppend(t *testing.T) {
	keys := []uint64{5, 6, 7, 8, 9}
	vals := []uint64{50, 60, 70, 80, 90}
	write := func(app func(*Log) error) *MemFS {
		fs := NewMemFS()
		l, err := Open("wal", Options{FS: fs}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := app(l); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		return fs
	}
	whole := write(func(l *Log) error { return l.Append(Record{EndWatermark: 5, Keys: keys, Vals: vals}) })
	segs := write(func(l *Log) error {
		return l.AppendSegments(5, [][]uint64{keys[:1], nil, keys[1:]}, [][]uint64{vals[:4], vals[4:]})
	})
	names, err := segs.ReadDir("wal")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) == 0 {
		t.Fatal("log wrote no files")
	}
	for _, name := range names {
		if a, b := whole.Bytes("wal/"+name), segs.Bytes("wal/"+name); a == nil || !bytes.Equal(a, b) {
			t.Fatalf("%s: AppendSegments wrote %d bytes unlike Append's %d", name, len(b), len(a))
		}
	}
	var got []uint64
	if _, err := Open("wal", Options{FS: segs}, collectReplay(&got)); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, keys) {
		t.Fatalf("replayed keys %v, want %v", got, keys)
	}
}

// TestCheckHeader: the one header reader accepts exactly a payload of the
// stated size opening with the magic and version, and refuses a short or
// long payload, another magic or another version with the caller's
// sentinel.
func TestCheckHeader(t *testing.T) {
	errMine := errors.New("mine")
	good := []byte("MAGX\x02fields")
	if err := CheckHeader(good, "MAGX", 2, len(good), errMine); err != nil {
		t.Fatalf("good header: %v", err)
	}
	for name, tc := range map[string]struct {
		payload []byte
		size    int
	}{
		"short":   {good[:len(good)-1], len(good)},
		"long":    {good, len(good) - 1},
		"empty":   {nil, len(good)},
		"magic":   {[]byte("MAGY\x02fields"), len(good)},
		"version": {[]byte("MAGX\x03fields"), len(good)},
	} {
		if err := CheckHeader(tc.payload, "MAGX", 2, tc.size, errMine); !errors.Is(err, errMine) {
			t.Errorf("%s: %v, want the caller's sentinel", name, err)
		}
	}
}
