package agg

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"sort"
	"testing"

	"memagg/internal/arena"
	"memagg/internal/radix"
	"memagg/internal/wal"
)

// buildPartial observes (and, with ar non-nil, buffers) vals into a fresh
// partial.
func buildPartial(ar *arena.Arena, vals []uint64) *Partial {
	p := &Partial{}
	for _, v := range vals {
		p.Observe(v)
		if ar != nil {
			p.Buffer(ar, v)
		}
	}
	return p
}

// recordValues decodes a record's encoded value section.
func recordValues(b []byte) []uint64 {
	vals := make([]uint64, len(b)/8)
	for i := range vals {
		vals[i] = binary.LittleEndian.Uint64(b[8*i:])
	}
	return vals
}

// reencode rebuilds a decoded record into an arena-backed partial and
// encodes it again.
func reencode(key uint64, p Partial, vals []uint64) []byte {
	ar := arena.New()
	for _, v := range vals {
		p.Buffer(ar, v)
	}
	return appendGroup(nil, key, &p, ar, true)
}

func TestPartialWireRoundTrip(t *testing.T) {
	ar := arena.New()
	cases := [][]uint64{
		nil,
		{0},
		{42},
		{1, 2, 3, 4, 5},
		{^uint64(0), 0, ^uint64(0) - 1},
	}
	for _, vals := range cases {
		p := buildPartial(ar, vals)
		enc := appendGroup(nil, 9001, p, ar, true)
		if want := groupSize(p, true); len(enc) != want {
			t.Fatalf("encoded %d values to %d bytes, want %d", len(vals), len(enc), want)
		}
		key, got, gotVals, n, err := decodeGroup(enc, true)
		if err != nil || n != len(enc) {
			t.Fatalf("decode: n=%d err=%v", n, err)
		}
		if key != 9001 {
			t.Fatalf("key = %d", key)
		}
		if got.Count() != p.Count() || got.Sum() != p.Sum() {
			t.Fatalf("eager state mismatch: %+v vs %+v", got, *p)
		}
		gmin, gok := got.Min()
		pmin, pok := p.Min()
		if gok != pok || gmin != pmin {
			t.Fatalf("min mismatch")
		}
		dv := recordValues(gotVals)
		if len(dv) != len(vals) {
			t.Fatalf("vals = %v want %v", dv, vals)
		}
		for i := range vals {
			if dv[i] != vals[i] {
				t.Fatalf("vals = %v want %v", dv, vals)
			}
		}
		// Re-encoding the decoded form is byte-identical.
		if re := reencode(key, got, dv); !bytes.Equal(re, enc) {
			t.Fatalf("re-encode differs:\n%x\n%x", re, enc)
		}
	}
}

// TestPartialWireDistributiveSkipsValues: a run without values encodes the
// 40-byte eager record only, even for a partial that buffered values.
func TestPartialWireDistributiveSkipsValues(t *testing.T) {
	ar := arena.New()
	p := buildPartial(ar, []uint64{5, 11})
	enc := appendGroup(nil, 7, p, ar, false)
	if len(enc) != groupHeader {
		t.Fatalf("distributive record is %d bytes, want %d", len(enc), groupHeader)
	}
	_, got, vals, _, err := decodeGroup(enc, false)
	if err != nil || len(vals) != 0 || got.Count() != 2 || got.Sum() != 16 {
		t.Fatalf("decode: %+v vals=%v err=%v", got, vals, err)
	}
}

func TestPartialWireRejectsMalformed(t *testing.T) {
	ar := arena.New()
	valid := appendGroup(nil, 1, buildPartial(ar, []uint64{3, 9}), ar, true)
	for name, corrupt := range map[string][]byte{
		"short header":    valid[:10],
		"truncated vals":  valid[:len(valid)-4],
		"empty":           nil,
		"min above max":   mutate(valid, 24, 100, 32, 1), // min=100, max=1
		"vals beyond cnt": mutate(valid, 8, 1, 40, 2),    // count=1, nvals=2
		"ghost state":     mutate(valid, 8, 0, 40, 0),    // count=0, sum stays
	} {
		if _, _, _, _, err := decodeGroup(corrupt, true); !errors.Is(err, ErrGroupRun) {
			t.Errorf("%s: err = %v, want ErrGroupRun", name, err)
		}
	}
	// Frame level: a group count the bytes cannot hold, and bytes past the
	// counted groups.
	body := binary.LittleEndian.AppendUint32(nil, 1)
	body = append(body, valid...)
	for name, bad := range map[string][]byte{
		"overcount": append(binary.LittleEndian.AppendUint32(nil, 1<<20), valid...),
		"trailing":  append(append([]byte(nil), body...), 0),
		"no count":  {1, 2},
	} {
		if _, err := DecodeRunFrame(make([]Table, 1), bad, true); !errors.Is(err, ErrGroupRun) {
			t.Errorf("%s: err = %v, want ErrGroupRun", name, err)
		}
	}
}

// mutate overwrites two little-endian fields of a copy of enc: offset a
// gets va (8 bytes), offset b gets vb (8 bytes for value offsets, 4 for
// the nvals field at 40).
func mutate(enc []byte, a int, va uint64, b int, vb uint64) []byte {
	out := append([]byte(nil), enc...)
	binary.LittleEndian.PutUint64(out[a:], va)
	if b == 40 {
		binary.LittleEndian.PutUint32(out[b:], uint32(vb))
	} else {
		binary.LittleEndian.PutUint64(out[b:], vb)
	}
	return out
}

// TestRunWriterRoundTrip: tables written as a run — cut into several
// frames, each opening with the writer's head — decode back, frame by
// frame, into radix-partitioned tables holding exactly the written groups;
// an empty run is one frame of no groups.
func TestRunWriterRoundTrip(t *testing.T) {
	old := RunFrameBytes
	RunFrameBytes = 1 << 10
	defer func() { RunFrameBytes = old }()

	for _, values := range []bool{false, true} {
		src := []Table{NewTable(0), NewTable(0)}
		want := map[uint64][]uint64{}
		for i := uint64(0); i < 3000; i++ {
			k, v := i%700, i*7%1000
			tb := src[i%2]
			p := tb.T.Upsert(k)
			p.Observe(v)
			p.Buffer(tb.Ar, v)
			want[k] = append(want[k], v)
		}
		head := []byte{0xAB, 0xCD}
		var out []byte
		w := NewRunWriter(head, values, func(f []byte) error {
			out = append(out, f...)
			return nil
		})
		for _, tb := range src {
			w.Add(tb)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if w.Frames() < 2 || w.Groups() != uint64(src[0].Len()+src[1].Len()) {
			t.Fatalf("values=%v: %d frames, %d groups", values, w.Frames(), w.Groups())
		}
		parts := make([]Table, 4)
		r := bufio.NewReader(bytes.NewReader(out))
		var got int
		for f := 0; f < w.Frames(); f++ {
			payload, _, err := wal.ReadFrame(r)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(payload[:2], head) {
				t.Fatalf("frame %d head %x", f, payload[:2])
			}
			n, err := DecodeRunFrame(parts, payload[2:], values)
			if err != nil {
				t.Fatal(err)
			}
			got += n
		}
		if got != int(w.Groups()) || Groups(parts) != len(want) {
			t.Fatalf("values=%v: decoded %d records into %d groups, want %d into %d",
				values, got, Groups(parts), w.Groups(), len(want))
		}
		for k, vals := range want {
			p := parts[radix.PartitionIndex(k, 2)].T.Get(k)
			if p == nil || p.Count() != uint64(len(vals)) {
				t.Fatalf("values=%v: group %d: %+v", values, k, p)
			}
			if buffered := p.Buffered(); values && buffered != len(vals) || !values && buffered != 0 {
				t.Fatalf("values=%v: group %d buffered %d", values, k, buffered)
			}
		}
	}

	var out []byte
	w := NewRunWriter(nil, false, func(f []byte) error {
		out = append(out, f...)
		return nil
	})
	w.Add(Table{})
	if err := w.Close(); err != nil || w.Frames() != 1 || len(out) != 8+4 {
		t.Fatalf("empty run: %d frames, %d bytes, err %v", w.Frames(), len(out), err)
	}
}

// FuzzPartialWire is the group-record fuzzer the three run containers lean
// on: arbitrary bytes, read as records with values, must decode to either
// an error or a record that (a) re-encodes byte-identical — the round-trip
// property — and (b) merges after decode exactly as it would have merged
// before encode, eager state and value multiset both.
func FuzzPartialWire(f *testing.F) {
	ar := arena.New()
	f.Add(appendGroup(nil, 3, buildPartial(ar, []uint64{1, 5, 5, 2}), ar, true))
	f.Add(appendGroup(nil, 0, buildPartial(nil, nil), nil, true))
	two := appendGroup(nil, 8, buildPartial(ar, []uint64{7}), ar, true)
	two = appendGroup(two, 8, buildPartial(ar, []uint64{9, 11}), ar, true)
	f.Add(two)
	f.Add([]byte("not a partial record at all, just text"))

	f.Fuzz(func(t *testing.T, data []byte) {
		// Decode a stream of records; stop at the first malformed one (a
		// framed transport would have rejected the rest by CRC anyway).
		type rec struct {
			key  uint64
			p    Partial
			vals []uint64
		}
		var recs []rec
		for off := 0; off < len(data); {
			key, p, enc, n, err := decodeGroup(data[off:], true)
			if err != nil {
				break
			}
			vals := recordValues(enc)
			// Round trip: re-encoding reproduces the exact input bytes.
			if re := reencode(key, p, vals); !bytes.Equal(re, data[off:off+n]) {
				t.Fatalf("re-encode differs at offset %d:\n in %x\nout %x", off, data[off:off+n], re)
			}
			recs = append(recs, rec{key, p, vals})
			off += n
		}
		if len(recs) < 2 {
			return
		}
		// Merge-after-decode == merge-before-encode: folding the decoded
		// partials must equal decoding an encoding of the fold — so a
		// router merging shipped partials gets exactly the state a single
		// node holding all the rows would ship.
		var after Partial
		var afterVals []uint64
		for _, r := range recs {
			after.Merge(&r.p)
			afterVals = append(afterVals, r.vals...)
		}
		enc := reencode(recs[0].key, after, afterVals)
		_, dec, decEnc, _, err := decodeGroup(enc, true)
		if err != nil {
			// Merge sums counts and concatenates values, so validity is
			// preserved; any error here is a codec bug. (Count overflow
			// wrapping to a count below len(vals) is the one exception a
			// fuzzer can hit — tolerate only that exact case.)
			if after.Count() < uint64(len(afterVals)) {
				return
			}
			t.Fatalf("merged record failed to decode: %v", err)
		}
		decVals := recordValues(decEnc)
		if dec.Count() != after.Count() || dec.Sum() != after.Sum() {
			t.Fatalf("merged eager state diverged: %+v vs %+v", dec, after)
		}
		dmin, dok := dec.Min()
		amin, aok := after.Min()
		dmax, _ := dec.Max()
		amax, _ := after.Max()
		if dok != aok || dmin != amin || dmax != amax {
			t.Fatalf("merged min/max diverged")
		}
		sort.Slice(decVals, func(i, j int) bool { return decVals[i] < decVals[j] })
		sort.Slice(afterVals, func(i, j int) bool { return afterVals[i] < afterVals[j] })
		if len(decVals) != len(afterVals) {
			t.Fatalf("merged multiset size diverged: %d vs %d", len(decVals), len(afterVals))
		}
		for i := range decVals {
			if decVals[i] != afterVals[i] {
				t.Fatalf("merged multiset diverged at %d", i)
			}
		}
	})
}
