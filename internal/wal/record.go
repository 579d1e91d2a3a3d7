package wal

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
)

// Frame layout — every durable write in the subsystem (log records,
// checkpoint runs, checkpoint META) uses the same self-validating frame:
//
//	offset  size  field
//	0       4     payload length n, little-endian uint32
//	4       4     CRC32C (Castagnoli) of the payload
//	8       n     payload
//
// A frame is valid iff the full n bytes are present and their CRC32C
// matches. A short header, a short payload, or a CRC mismatch all mean
// the same thing to recovery: the log ends at the previous frame.
// FrameHeader is the header's size.
const FrameHeader = 8

// MaxFrame bounds a frame's payload so a corrupt length field cannot ask
// the reader to allocate gigabytes: 64 MiB is ~100x the largest frame the
// stream writes (a seal record of SealRows rows). Writers that frame
// variable-size payloads (checkpoint partition runs) must chunk below it —
// ReadFrame rejects anything larger as corrupt.
const MaxFrame = 64 << 20

// castagnoli is the CRC32C polynomial table — the variant with hardware
// support on both x86 (SSE4.2) and arm64.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// SealFrame writes frame's header: frame is FrameHeader reserved bytes
// followed by the payload. Every frame writer ends here — AppendFrame, and
// the codecs that build a frame in place inside a larger buffer (log
// records, chunk columns, group runs) — so the header is written in one
// place.
func SealFrame(frame []byte) {
	payload := frame[FrameHeader:]
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, castagnoli))
}

// AppendFrame appends the frame for payload to dst and returns it.
func AppendFrame(dst, payload []byte) []byte {
	start := len(dst)
	dst = append(dst, make([]byte, FrameHeader)...)
	dst = append(dst, payload...)
	SealFrame(dst[start:])
	return dst
}

// ReadFrame reads one frame from r. It returns the payload and the total
// bytes consumed. io.EOF with n == 0 is a clean end of input; any torn or
// invalid frame returns an error wrapping ErrWALCorrupt — callers
// truncate at the offset where the failed read started.
func ReadFrame(r *bufio.Reader) (payload []byte, n int, err error) {
	var hdr [FrameHeader]byte
	if _, err := io.ReadFull(r, hdr[:1]); err != nil {
		if err == io.EOF {
			return nil, 0, io.EOF // clean end: no partial header
		}
		return nil, 0, fmt.Errorf("frame header: %v: %w", err, ErrWALCorrupt)
	}
	if _, err := io.ReadFull(r, hdr[1:]); err != nil {
		return nil, 0, fmt.Errorf("torn frame header: %w", ErrWALCorrupt)
	}
	length := binary.LittleEndian.Uint32(hdr[0:4])
	if length == 0 || length > MaxFrame {
		return nil, 0, fmt.Errorf("frame length %d: %w", length, ErrWALCorrupt)
	}
	payload = make([]byte, length)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, 0, fmt.Errorf("torn frame payload: %w", ErrWALCorrupt)
	}
	if crc := crc32.Checksum(payload, castagnoli); crc != binary.LittleEndian.Uint32(hdr[4:8]) {
		return nil, 0, fmt.Errorf("frame CRC mismatch: %w", ErrWALCorrupt)
	}
	return payload, FrameHeader + int(length), nil
}

// Record is one logical log entry: the raw rows of one sealed delta,
// stamped with the stream watermark after the seal published. Replaying
// records in order reproduces the exact publication sequence, so the
// watermark doubles as the log sequence number — record k's EndWatermark
// is the total row count once records 1..k are applied.
type Record struct {
	// EndWatermark is the stream watermark after this record's rows are
	// visible: previous record's EndWatermark + len(Keys).
	EndWatermark uint64
	// Keys and Vals are the record's rows; equal length.
	Keys, Vals []uint64
}

// Rows returns the number of rows the record carries.
func (r Record) Rows() int { return len(r.Keys) }

// Record payload layout (inside a frame):
//
//	offset  size  field
//	0       1     kind (recordRows)
//	1       8     end watermark, little-endian uint64
//	9       4     row count n, little-endian uint32
//	13      8n    keys, little-endian uint64 each
//	13+8n   8n    vals, little-endian uint64 each
const (
	recordRows       = 1
	recordHeaderSize = 13
)

// encodeRecord appends the framed encoding of the record ending at endWM
// to dst. Its rows arrive as column segments: the record's keys are the
// keys segments concatenated in order, and its values likewise, so a
// sealed delta logs the batches it absorbed without first gathering them
// into one array. The bytes do not depend on how the rows are split. The
// keys and vals segments must hold the same total number of rows. The
// frame is built in place — payload first, header backfilled — so a caller
// reusing dst across appends (Log.Append does) allocates nothing on the
// hot path.
func encodeRecord(dst []byte, endWM uint64, keys, vals [][]uint64) []byte {
	n := 0
	for _, seg := range keys {
		n += len(seg)
	}
	payloadLen := recordHeaderSize + 16*n
	start := len(dst)
	dst = slices.Grow(dst, FrameHeader+payloadLen)[:start+FrameHeader+payloadLen]
	payload := dst[start+FrameHeader:]
	payload[0] = recordRows
	binary.LittleEndian.PutUint64(payload[1:9], endWM)
	binary.LittleEndian.PutUint32(payload[9:13], uint32(n))
	off := recordHeaderSize
	for _, segs := range [2][][]uint64{keys, vals} {
		for _, seg := range segs {
			for _, x := range seg {
				binary.LittleEndian.PutUint64(payload[off:], x)
				off += 8
			}
		}
	}
	SealFrame(dst[start:])
	return dst
}

// decodeRecord parses a frame payload into a Record.
func decodeRecord(payload []byte) (Record, error) {
	if len(payload) < recordHeaderSize || payload[0] != recordRows {
		return Record{}, fmt.Errorf("record header: %w", ErrWALCorrupt)
	}
	n := int(binary.LittleEndian.Uint32(payload[9:13]))
	if len(payload) != recordHeaderSize+16*n {
		return Record{}, fmt.Errorf("record size %d for %d rows: %w", len(payload), n, ErrWALCorrupt)
	}
	r := Record{
		EndWatermark: binary.LittleEndian.Uint64(payload[1:9]),
		Keys:         make([]uint64, n),
		Vals:         make([]uint64, n),
	}
	off := recordHeaderSize
	for i := range r.Keys {
		r.Keys[i] = binary.LittleEndian.Uint64(payload[off:])
		off += 8
	}
	for i := range r.Vals {
		r.Vals[i] = binary.LittleEndian.Uint64(payload[off:])
		off += 8
	}
	return r, nil
}
