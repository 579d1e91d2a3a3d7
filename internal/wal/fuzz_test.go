package wal

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"testing"
)

// FuzzReadFrame throws arbitrary bytes at the frame reader: it must never
// panic, never return a payload that fails its own CRC contract, and must
// round-trip everything AppendFrame produces.
func FuzzReadFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendFrame(nil, []byte("hello")))
	f.Add(AppendFrame(AppendFrame(nil, []byte("a")), []byte("bb")))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})
	torn := AppendFrame(nil, []byte("torn tail"))
	f.Add(torn[:len(torn)-3])

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bufio.NewReader(bytes.NewReader(data))
		off := 0
		for {
			payload, n, err := ReadFrame(r)
			if err == io.EOF {
				if off != len(data) {
					t.Fatalf("clean EOF at %d of %d bytes", off, len(data))
				}
				return
			}
			if err != nil {
				if !errors.Is(err, ErrWALCorrupt) {
					t.Fatalf("non-corrupt error: %v", err)
				}
				return // recovery truncates here
			}
			// A frame the reader accepts must re-encode to the same bytes.
			reframed := AppendFrame(nil, payload)
			if !bytes.Equal(reframed, data[off:off+n]) {
				t.Fatalf("accepted frame at %d does not round-trip", off)
			}
			off += n
		}
	})
}

// FuzzRecordDecode: arbitrary frame payloads must never panic the record
// decoder, and every accepted record must round-trip through encodeRecord.
func FuzzRecordDecode(f *testing.F) {
	valid := encodeRecord(nil, Record{EndWatermark: 3, Keys: []uint64{1, 2, 3}, Vals: []uint64{9, 8, 7}})
	f.Add(valid[FrameHeader:]) // the framed payload
	f.Add([]byte{recordRows})
	f.Add([]byte{recordRows, 0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, payload []byte) {
		rec, err := decodeRecord(payload)
		if err != nil {
			if !errors.Is(err, ErrWALCorrupt) {
				t.Fatalf("non-corrupt decode error: %v", err)
			}
			return
		}
		if len(rec.Keys) != len(rec.Vals) {
			t.Fatalf("accepted record with %d keys, %d vals", len(rec.Keys), len(rec.Vals))
		}
		re := encodeRecord(nil, rec)
		if !bytes.Equal(re[FrameHeader:], payload) {
			t.Fatal("accepted record does not round-trip")
		}
	})
}

// buildFuzzLog writes a deterministic log of n single-row records
// (key=i%37, val=i) and returns the filesystem plus the segment file
// names, oldest first.
func buildFuzzLog(t *testing.T, n int) (*MemFS, []string) {
	t.Helper()
	fs := NewMemFS()
	l, err := Open("wal", Options{FS: fs, SyncPolicy: SyncAlways, SegmentBytes: 1024}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		rec := Record{EndWatermark: uint64(i + 1), Keys: []uint64{uint64(i % 37)}, Vals: []uint64{uint64(i)}}
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	names, err := fs.ReadDir("wal")
	if err != nil {
		t.Fatal(err)
	}
	var segs []string
	for _, name := range names {
		if _, ok := segSeq(name); ok {
			segs = append(segs, name)
		}
	}
	return fs, segs
}

// FuzzLogRecovery mutates one byte and/or truncates one segment of a
// valid multi-segment log at fuzzed positions, then recovers: Open must
// never panic, must succeed, and must replay a strict prefix of the
// original records — the longest-valid-prefix contract.
func FuzzLogRecovery(f *testing.F) {
	f.Add(uint16(0), byte(0x01), uint16(0))
	f.Add(uint16(100), byte(0xff), uint16(0))
	f.Add(uint16(0), byte(0), uint16(5))
	f.Add(uint16(900), byte(0x40), uint16(17))
	f.Add(uint16(65535), byte(0x80), uint16(65535))

	const rows = 120
	f.Fuzz(func(t *testing.T, pos uint16, xor byte, cut uint16) {
		fs, segs := buildFuzzLog(t, rows)
		if len(segs) < 2 {
			t.Fatalf("want a multi-segment log, got %d segments", len(segs))
		}

		// Spread the fuzzed offsets across the whole log: pick the segment
		// by position, then mutate within it.
		var total int
		sizes := make([]int, len(segs))
		for i, name := range segs {
			sizes[i] = len(fs.Bytes("wal/" + name))
			total += sizes[i]
		}
		off := int(pos) % total
		seg := 0
		for off >= sizes[seg] {
			off -= sizes[seg]
			seg++
		}
		name := "wal/" + segs[seg]
		data := fs.Bytes(name)
		if xor != 0 {
			data[off] ^= xor
		}
		if cut != 0 {
			keep := len(data) - int(cut)%len(data)
			data = data[:keep]
		}
		fs.SetBytes(name, data)

		var replayed []Record
		l, err := Open("wal", Options{FS: fs}, func(r Record) error {
			replayed = append(replayed, r)
			return nil
		})
		if err != nil {
			t.Fatalf("recovery errored instead of truncating: %v", err)
		}
		defer l.Close()

		if len(replayed) > rows {
			t.Fatalf("replayed %d records from a %d-record log", len(replayed), rows)
		}
		for i, r := range replayed {
			if r.EndWatermark != uint64(i+1) || len(r.Keys) != 1 ||
				r.Keys[0] != uint64(i%37) || r.Vals[0] != uint64(i) {
				t.Fatalf("record %d not the original prefix: %+v", i, r)
			}
		}
		if got := l.LastWatermark(); got != uint64(len(replayed)) {
			t.Fatalf("recovered watermark %d after %d records", got, len(replayed))
		}
		// The repaired log must accept appends at the recovered watermark.
		next := uint64(len(replayed)) + 1
		if err := l.Append(Record{EndWatermark: next, Keys: []uint64{1}, Vals: []uint64{2}}); err != nil {
			t.Fatalf("append after recovery: %v", err)
		}
	})
}
