package stream

import (
	"testing"

	"memagg/internal/wal"
)

// FuzzWALRecovery is the end-to-end recovery fuzzer: a valid WAL is
// damaged at a fuzzed position (bit-flip and/or truncation of one
// segment), then a stream is opened over the wreckage. The contract
// under test: recovery never panics, never errors on segment damage,
// and the recovered aggregates are exactly those of the longest input
// prefix the log still proves — never a wrong answer for any key.
func FuzzWALRecovery(f *testing.F) {
	f.Add(uint16(0), byte(0x01), uint16(0))
	f.Add(uint16(500), byte(0x80), uint16(0))
	f.Add(uint16(0), byte(0), uint16(9))
	f.Add(uint16(2000), byte(0xff), uint16(33))
	f.Add(uint16(65535), byte(0x10), uint16(65535))

	const (
		rows = 600
		mod  = 23
	)
	f.Fuzz(func(t *testing.T, pos uint16, xor byte, cut uint16) {
		// Build the reference log directly: one multi-row record per
		// "delta" of 40 rows, watermark = rows appended so far. Writing
		// through the wal package (not a live stream) keeps each fuzz
		// execution deterministic and cheap.
		fs := wal.NewMemFS()
		l, err := wal.Open("data/wal", wal.Options{FS: fs, SyncPolicy: wal.SyncAlways, SegmentBytes: 2048}, nil)
		if err != nil {
			t.Fatal(err)
		}
		keys := make([]uint64, rows)
		vals := make([]uint64, rows)
		for i := range keys {
			keys[i] = uint64(i % mod)
			vals[i] = uint64(i)*7 + 1
		}
		const deltaRows = 40
		for lo := 0; lo < rows; lo += deltaRows {
			hi := lo + deltaRows
			rec := wal.Record{EndWatermark: uint64(hi), Keys: keys[lo:hi], Vals: vals[lo:hi]}
			if err := l.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		l.Close()

		// Damage one segment at the fuzzed offset.
		names, err := fs.ReadDir("data/wal")
		if err != nil {
			t.Fatal(err)
		}
		var segs []string
		for _, name := range names {
			if name != "MANIFEST" {
				segs = append(segs, name)
			}
		}
		var total int
		sizes := make([]int, len(segs))
		for i, name := range segs {
			sizes[i] = len(fs.Bytes("data/wal/" + name))
			total += sizes[i]
		}
		off := int(pos) % total
		seg := 0
		for off >= sizes[seg] {
			off -= sizes[seg]
			seg++
		}
		name := "data/wal/" + segs[seg]
		data := fs.Bytes(name)
		if xor != 0 {
			data[off] ^= xor
		}
		if cut != 0 {
			data = data[:len(data)-int(cut)%len(data)]
		}
		fs.SetBytes(name, data)

		// Recover. CheckpointEvery -1 keeps this WAL-only, so the whole
		// recovered state is what the damaged log proves.
		cfg := Config{
			Shards: 1, SealRows: 64, MergeBits: 4, Holistic: true,
			Durability: Durability{Dir: "data", FS: fs, SyncPolicy: wal.SyncNone, CheckpointEvery: -1},
		}
		s, err := Open(cfg)
		if err != nil {
			t.Fatalf("recovery errored instead of truncating: %v", err)
		}
		defer s.Close()

		sn := s.Snapshot()
		w := sn.Watermark()
		if w > rows || w%deltaRows != 0 {
			t.Fatalf("recovered watermark %d: not a record boundary of a %d-row log", w, rows)
		}
		if w == 0 {
			if n := sn.Count(); n != 0 {
				t.Fatalf("empty recovery reports %d rows", n)
			}
			return
		}
		checkAgainstBatch(t, "recovered", sn, keys[:w], vals[:w])
	})
}
