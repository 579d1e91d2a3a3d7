package cluster

import (
	"bytes"
	"errors"
	"sort"
	"testing"

	"memagg/internal/agg"
	"memagg/internal/radix"
	"memagg/internal/stream"
	"memagg/internal/wal"
)

// buildStream ingests a deterministic dataset and returns the stream
// (flushed, so every row is visible) plus the expected per-group state.
func buildStream(t *testing.T, holistic bool, rows int) (*stream.Stream, map[uint64][]uint64) {
	t.Helper()
	s := stream.New(stream.Config{Shards: 2, SealRows: 1024, Holistic: holistic})
	t.Cleanup(func() { s.Close() })
	want := make(map[uint64][]uint64)
	keys := make([]uint64, 0, 512)
	vals := make([]uint64, 0, 512)
	rng := uint64(0x9E3779B97F4A7C15)
	for i := 0; i < rows; i++ {
		rng = rng*6364136223846793005 + 1442695040888963407
		k := rng >> 33 % 257
		v := rng % 1000
		keys = append(keys, k)
		vals = append(vals, v)
		want[k] = append(want[k], v)
		if len(keys) == 512 {
			if err := s.AppendChunk(agg.Chunk{Keys: keys, Vals: vals}); err != nil {
				t.Fatalf("append: %v", err)
			}
			// Fresh arrays: the stream reads the appended ones in place.
			keys, vals = make([]uint64, 0, 512), make([]uint64, 0, 512)
		}
	}
	if err := s.AppendChunk(agg.Chunk{Keys: keys, Vals: vals}); err != nil {
		t.Fatalf("append: %v", err)
	}
	if err := s.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	return s, want
}

// mgroup is one decoded group: the eager fold plus its value multiset.
type mgroup struct {
	p    agg.Partial
	vals []uint64
}

// encode is EncodeSnapshot that fails the test on error.
func encode(t *testing.T, sn *stream.Snapshot) []byte {
	t.Helper()
	buf, err := EncodeSnapshot(nil, sn)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	return buf
}

// decode decodes a set at the gather's fan-out.
func decode(b []byte) (setHeader, []agg.Table, error) {
	parts := make([]agg.Table, 1<<gatherBits)
	hdr, err := DecodePartialSet(bytes.NewReader(b), parts)
	return hdr, parts, err
}

func decodeAll(t *testing.T, buf []byte) (setHeader, map[uint64]*mgroup) {
	t.Helper()
	hdr, parts, err := decode(buf)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	groups := make(map[uint64]*mgroup)
	for q, tb := range parts {
		if tb.T == nil {
			continue
		}
		tb.T.Iterate(func(k uint64, p *agg.Partial) bool {
			if radix.PartitionIndex(k, gatherBits) != q {
				t.Fatalf("group %d decoded into partition %d", k, q)
			}
			groups[k] = &mgroup{p: *p, vals: p.AppendValues(tb.Ar, nil)}
			return true
		})
	}
	return hdr, groups
}

// TestPartialSetRoundTrip: a holistic snapshot encodes and decodes to
// exactly the ingested per-group state — eager folds and multisets.
func TestPartialSetRoundTrip(t *testing.T) {
	const rows = 20_000
	s, want := buildStream(t, true, rows)
	sn := s.Snapshot()
	buf := encode(t, sn)

	hdr, groups := decodeAll(t, buf)
	if !hdr.Holistic {
		t.Error("holistic flag lost")
	}
	if hdr.Watermark != uint64(rows) {
		t.Errorf("watermark %d, want %d", hdr.Watermark, rows)
	}
	if len(groups) != len(want) {
		t.Fatalf("decoded %d groups, want %d", len(groups), len(want))
	}
	for k, vals := range want {
		g := groups[k]
		if g == nil {
			t.Fatalf("group %d missing", k)
		}
		var count, sum uint64
		min, max := vals[0], vals[0]
		for _, v := range vals {
			count++
			sum += v
			if v < min {
				min = v
			}
			if v > max {
				max = v
			}
		}
		gmin, _ := g.p.Min()
		gmax, _ := g.p.Max()
		if g.p.Count() != count || g.p.Sum() != sum || gmin != min || gmax != max {
			t.Fatalf("group %d eager state mismatch", k)
		}
		got := append([]uint64(nil), g.vals...)
		exp := append([]uint64(nil), vals...)
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		sort.Slice(exp, func(i, j int) bool { return exp[i] < exp[j] })
		if len(got) != len(exp) {
			t.Fatalf("group %d: %d vals, want %d", k, len(got), len(exp))
		}
		for i := range got {
			if got[i] != exp[i] {
				t.Fatalf("group %d multiset mismatch at %d", k, i)
			}
		}
	}
}

// TestPartialSetDistributive: without holistic mode the set carries no
// value multisets and says so in its header.
func TestPartialSetDistributive(t *testing.T) {
	s, want := buildStream(t, false, 5_000)
	buf := encode(t, s.Snapshot())
	hdr, groups := decodeAll(t, buf)
	if hdr.Holistic {
		t.Error("holistic flag set on distributive stream")
	}
	if len(groups) != len(want) {
		t.Fatalf("decoded %d groups, want %d", len(groups), len(want))
	}
	for k, g := range groups {
		if len(g.vals) != 0 {
			t.Fatalf("group %d carries %d buffered values", k, len(g.vals))
		}
	}
}

// TestPartialSetChunking: sets larger than the chunk target split into
// multiple frames and still decode whole.
func TestPartialSetChunking(t *testing.T) {
	old := agg.RunFrameBytes
	agg.RunFrameBytes = 1 << 10
	defer func() { agg.RunFrameBytes = old }()

	s, want := buildStream(t, true, 10_000)
	buf := encode(t, s.Snapshot())
	_, groups := decodeAll(t, buf)
	if len(groups) != len(want) {
		t.Fatalf("decoded %d groups, want %d", len(groups), len(want))
	}
}

// TestPartialSetRejectsCorruption: bit flips and truncations anywhere in
// the stream fail the decode with a typed error — never a silent
// mis-merge.
func TestPartialSetRejectsCorruption(t *testing.T) {
	s, _ := buildStream(t, true, 2_000)
	buf := encode(t, s.Snapshot())

	decode := func(b []byte) error {
		_, _, err := decode(b)
		return err
	}
	if err := decode(buf); err != nil {
		t.Fatalf("clean set: %v", err)
	}
	// Flip one byte at a spread of offsets: each must surface as a frame
	// CRC failure (or, for length bytes, a framing error).
	for _, off := range []int{0, 5, 9, 30, len(buf) / 2, len(buf) - 1} {
		bad := append([]byte(nil), buf...)
		bad[off] ^= 0x40
		err := decode(bad)
		if err == nil {
			t.Fatalf("flip at %d: decode accepted corrupt set", off)
		}
		if !errors.Is(err, wal.ErrWALCorrupt) && !errors.Is(err, ErrBadSet) && !errors.Is(err, agg.ErrGroupRun) {
			t.Fatalf("flip at %d: untyped error %v", off, err)
		}
	}
	// Truncations: a short stream is an error, not a short result.
	for _, n := range []int{3, 12, len(buf) / 3, len(buf) - 1} {
		if err := decode(buf[:n]); err == nil {
			t.Fatalf("truncate to %d: decode accepted torn set", n)
		}
	}
}

// TestSetHeaderRejects: bad magic and unknown versions are refused up
// front.
func TestSetHeaderRejects(t *testing.T) {
	good := appendSetHeader(nil, setHeader{Holistic: true, Watermark: 7, Groups: 3})
	// Payload starts after the 8-byte frame header (u32 len + u32 crc).
	for _, mut := range []struct {
		name string
		off  int
	}{{"magic", 8}, {"version", 12}} {
		bad := append([]byte(nil), good...)
		bad[mut.off] ^= 0xFF
		// Recompute nothing: the CRC catches it first, which is fine — the
		// decode must fail either way.
		if _, _, err := decode(bad); err == nil {
			t.Fatalf("%s mutation accepted", mut.name)
		}
	}
	// A syntactically valid frame with a wrong version: re-frame by hand.
	payload := make([]byte, 22)
	copy(payload, setMagic[:])
	payload[4] = setVersion + 1
	framed := wal.AppendFrame(nil, payload)
	if _, _, err := decode(framed); !errors.Is(err, ErrBadSet) {
		t.Fatalf("unknown version: %v, want ErrBadSet", err)
	}
}
