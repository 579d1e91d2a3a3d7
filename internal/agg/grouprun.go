package agg

import (
	"encoding/binary"
	"errors"
	"fmt"

	"memagg/internal/arena"
	"memagg/internal/radix"
	"memagg/internal/wal"
)

// Group runs — the one serialized form of Table state. Checkpoint
// partition runs (internal/wal/checkpoint), continuous-view pane snapshots
// (internal/cview PANES) and cluster partial sets (internal/cluster MAGP)
// all write tables as runs: one or more CRC-checked wal frames, each
// payload laid out as
//
//	head    the container's own prefix (a checkpoint run's partition
//	        index; empty elsewhere)
//	u32     group count n
//	n ×     group record
//
// and each group record, little-endian, as
//
//	offset  size  field
//	0       8     group key
//	8       8     count
//	16      8     sum
//	24      8     min
//	32      8     max
//	40      4     buffered value count v   } only in a run with values
//	44      8v    buffered values          }
//
// Whether a run carries values is the container's holistic flag
// (checkpoint META, the PANES view header, the MAGP header), never the
// record's. A record carries exactly what Merge and MergeValues consume,
// so a run decoded into a table merges identically to the groups it was
// written from: the eager state comes back bit for bit and the value
// multisets concatenate (holistic functions are order-insensitive, so
// multiset equality is result equality). FuzzPartialWire pins both.

// groupHeader is a record's fixed part: key, count, sum, min, max.
const groupHeader = 40

// RunFrameBytes is the payload size a run frame is cut at: far below
// wal.MaxFrame (which ReadFrame rejects as corrupt), large enough to
// amortize the framing. A var so tests can force multi-frame runs without
// megagroup fixtures.
var RunFrameBytes = 4 << 20

// ErrGroupRun marks a malformed group run: a torn or internally impossible
// record, a frame whose group count disagrees with its bytes, or a group
// too large to frame. Frame-level corruption surfaces as wal.ErrWALCorrupt
// one layer down; both mean "discard this run".
var ErrGroupRun = errors.New("agg: malformed group run")

// groupSize returns p's encoded record size.
func groupSize(p *Partial, values bool) int {
	if !values {
		return groupHeader
	}
	return groupHeader + 4 + 8*p.vals.Len()
}

// appendGroup appends the record of (key, p) to dst. ar is the arena p's
// values were buffered into, read only when values is set.
func appendGroup(dst []byte, key uint64, p *Partial, ar *arena.Arena, values bool) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, key)
	dst = binary.LittleEndian.AppendUint64(dst, p.count)
	dst = binary.LittleEndian.AppendUint64(dst, p.sum)
	dst = binary.LittleEndian.AppendUint64(dst, p.min)
	dst = binary.LittleEndian.AppendUint64(dst, p.max)
	if values {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(p.vals.Len()))
		ar.Each(p.vals, func(v uint64) { dst = binary.LittleEndian.AppendUint64(dst, v) })
	}
	return dst
}

// decodeGroup decodes the record at the front of src: the key, the eager
// state, the buffered values still encoded (8 bytes each, aliasing src),
// and the bytes consumed. A record whose eager state is internally
// impossible (rows counted but min > max, state or values for a group that
// counted no rows, more values than rows) is rejected: it cannot have come
// from Observe/Buffer, and merging it would corrupt exact results.
func decodeGroup(src []byte, values bool) (key uint64, p Partial, vals []byte, n int, err error) {
	n = groupHeader
	if values {
		n += 4
	}
	if len(src) < n {
		return 0, Partial{}, nil, 0, fmt.Errorf("short record (%d bytes): %w", len(src), ErrGroupRun)
	}
	key = binary.LittleEndian.Uint64(src[0:8])
	p = Partial{
		count: binary.LittleEndian.Uint64(src[8:16]),
		sum:   binary.LittleEndian.Uint64(src[16:24]),
		min:   binary.LittleEndian.Uint64(src[24:32]),
		max:   binary.LittleEndian.Uint64(src[32:40]),
	}
	p.seen = p.count > 0
	nv := 0
	if values {
		nv = int(binary.LittleEndian.Uint32(src[40:44]))
		if len(src)-n < 8*nv {
			return 0, Partial{}, nil, 0, fmt.Errorf("record wants %d value bytes, has %d: %w", 8*nv, len(src)-n, ErrGroupRun)
		}
		vals = src[n : n+8*nv]
		n += 8 * nv
	}
	if p.seen && p.min > p.max {
		return 0, Partial{}, nil, 0, fmt.Errorf("min %d > max %d: %w", p.min, p.max, ErrGroupRun)
	}
	if !p.seen && (p.sum != 0 || p.min != 0 || p.max != 0 || nv != 0) {
		return 0, Partial{}, nil, 0, fmt.Errorf("state without rows: %w", ErrGroupRun)
	}
	if uint64(nv) > p.count {
		return 0, Partial{}, nil, 0, fmt.Errorf("%d values for %d rows: %w", nv, p.count, ErrGroupRun)
	}
	return key, p, vals, n, nil
}

// RunWriter cuts tables into run frames and hands each complete frame —
// wal frame header included, in a buffer reused for the next frame — to
// emit. A run is at least one frame: Close emits the pending frame even
// when the run holds no groups, so an empty table still leaves a frame a
// reader can tell from a missing run.
type RunWriter struct {
	values  bool
	countAt int // offset of the pending frame's group count in buf
	emit    func(frame []byte) error
	buf     []byte // the pending frame: wal frame header, head, count, records
	n       uint32 // groups in the pending frame
	frames  int
	groups  uint64
	err     error
}

// NewRunWriter starts a run whose frame payloads open with head and whose
// records carry value multisets when values is set.
func NewRunWriter(head []byte, values bool, emit func(frame []byte) error) *RunWriter {
	w := &RunWriter{values: values, countAt: wal.FrameHeader + len(head), emit: emit}
	w.buf = make([]byte, wal.FrameHeader, wal.FrameHeader+len(head)+4+1024)
	w.buf = append(w.buf, head...)
	w.buf = append(w.buf, 0, 0, 0, 0)
	return w
}

// Add appends every group of the tables to the run, in order; the zero
// Table adds none.
func (w *RunWriter) Add(ts ...Table) {
	for _, t := range ts {
		if t.T == nil || w.err != nil {
			continue
		}
		t.T.Iterate(func(k uint64, p *Partial) bool {
			// A group that would push the pending frame past wal.MaxFrame
			// opens a frame of its own; only a group too large for any frame
			// fails (in flush).
			if w.n > 0 && len(w.buf)-wal.FrameHeader+groupSize(p, w.values) > wal.MaxFrame {
				if w.flush(); w.err != nil {
					return false
				}
			}
			w.buf = appendGroup(w.buf, k, p, t.Ar, w.values)
			w.n++
			w.groups++
			if len(w.buf)-wal.FrameHeader >= RunFrameBytes {
				w.flush()
			}
			return w.err == nil
		})
	}
}

// flush frames the pending payload in place and emits it.
func (w *RunWriter) flush() {
	if size := len(w.buf) - wal.FrameHeader; size > wal.MaxFrame {
		w.err = fmt.Errorf("group of %d bytes exceeds max frame %d: %w", size, wal.MaxFrame, ErrGroupRun)
		return
	}
	binary.LittleEndian.PutUint32(w.buf[w.countAt:], w.n)
	wal.SealFrame(w.buf)
	if err := w.emit(w.buf); err != nil {
		w.err = err
		return
	}
	w.frames++
	w.n = 0
	w.buf = w.buf[:w.countAt+4]
}

// Close emits the pending frame and returns the run's first error: an
// emit failure, or a group too large to frame. Nothing is emitted after
// an error.
func (w *RunWriter) Close() error {
	if w.err == nil && (w.n > 0 || w.frames == 0) {
		w.flush()
	}
	return w.err
}

// Frames returns the number of frames emitted.
func (w *RunWriter) Frames() int { return w.frames }

// Groups returns the number of groups added.
func (w *RunWriter) Groups() uint64 { return w.groups }

// DecodeRunFrame folds one run frame into the partition set parts (see
// parts.go; a set of one table takes every group). body is the frame
// payload past the container's head: the group count, then the records.
// Each group goes to its partition's table, allocated on first use; a key
// already present merges into its group, so decoding several runs into one
// set is their fold. It returns the number of groups decoded; errors wrap
// ErrGroupRun.
func DecodeRunFrame(parts []Table, body []byte, values bool) (int, error) {
	bits := partBits(parts)
	if len(body) < 4 {
		return 0, fmt.Errorf("run frame of %d bytes: %w", len(body), ErrGroupRun)
	}
	n := int(binary.LittleEndian.Uint32(body[:4]))
	body = body[4:]
	if n > len(body)/groupHeader {
		return 0, fmt.Errorf("%d groups in %d bytes: %w", n, len(body), ErrGroupRun)
	}
	for i := 0; i < n; i++ {
		key, p, vals, used, err := decodeGroup(body, values)
		if err != nil {
			return i, fmt.Errorf("group %d of %d: %w", i, n, err)
		}
		tb := &parts[radix.PartitionIndex(key, bits)]
		if tb.T == nil {
			*tb = NewTable(n >> bits)
		}
		np := tb.T.Upsert(key)
		np.Merge(&p)
		for off := 0; off < len(vals); off += 8 {
			np.Buffer(tb.Ar, binary.LittleEndian.Uint64(vals[off:]))
		}
		body = body[used:]
	}
	if len(body) != 0 {
		return n, fmt.Errorf("%d trailing bytes after %d groups: %w", len(body), n, ErrGroupRun)
	}
	return n, nil
}
