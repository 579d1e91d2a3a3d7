package agg

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"memagg/internal/wal"
)

// Chunk is the columnar ingest unit: a key column and a value column of
// equal logical length, Vals[i] belonging to Keys[i]. A Vals column
// shorter than Keys zero-extends, matching the row-pair operators'
// convention; a longer one is invalid. Chunks are what the whole ingest
// path is built around — the public facade (memagg.Stream.AppendChunk),
// the stream shards (which fold a chunk's columns straight into the
// batched MixBatch/UpsertH kernels, no row structs anywhere), the HTTP
// servers (application/x-memagg-chunk bodies), and the cluster router
// (which re-partitions a chunk columnar-wise by ring owner).
type Chunk struct {
	Keys []uint64
	Vals []uint64
}

// Rows returns the chunk's logical row count — the key column's length.
func (c Chunk) Rows() int { return len(c.Keys) }

// Validate reports whether the chunk's columns are consistent: the value
// column must not be longer than the key column (a short one
// zero-extends).
func (c Chunk) Validate() error {
	if len(c.Vals) > len(c.Keys) {
		return fmt.Errorf("agg: chunk has %d vals for %d keys: %w", len(c.Vals), len(c.Keys), ErrChunkWire)
	}
	return nil
}

// Chunk wire encoding — the binary ingest format. A body is a *chunk
// stream*: zero or more chunks back to back, each framed with the WAL's
// self-validating frame codec (internal/wal: u32 length + u32 CRC32C +
// payload), so a torn or corrupt body is detected at the frame where it
// breaks, never mis-read:
//
//	header frame:   "MAGC" u8:version u8:flags u64:rows            (14 B)
//	column frames:  u8:col (0 = keys, 1 = vals) u32:count, then
//	                count little-endian uint64s                    (5+8n B)
//
// The key column's frames come first and their counts sum to rows, then
// the value column's, summing to rows as well (the encoder zero-extends
// a short value column, so on the wire both columns are always full
// length). Column frames are cut at chunkWireTarget so neither side ever
// buffers more than a few MiB per frame; a chunk of zero rows is a bare
// header frame. flags must be zero (reserved). Clean EOF between chunks
// ends the stream; EOF anywhere inside one is corruption.
const (
	chunkVersion    = 1
	chunkHeaderSize = 14
	chunkColHeader  = 5
	chunkColKeys    = 0
	chunkColVals    = 1
	chunkWireTarget = 4 << 20
	chunkFrameRows  = (chunkWireTarget - chunkColHeader) / 8
	// MaxWireChunkRows bounds one wire chunk's row count so a corrupt
	// header cannot ask the decoder to allocate gigabytes (the same role
	// wal.MaxFrame plays one layer down). AppendChunkWire splits larger
	// chunks into several wire chunks transparently — the wire is a chunk
	// stream, so the split is invisible to the receiving stream.
	MaxWireChunkRows = 1 << 24
)

const chunkMagic = "MAGC"

// ChunkContentType is the media type of a binary chunk-stream HTTP body:
// zero or more wire chunks back to back, read until clean EOF. Shared by
// the aggserve servers, the cluster node handler, and the router's
// outbound scatter so content negotiation speaks one name everywhere.
const ChunkContentType = "application/x-memagg-chunk"

// ErrChunkWire marks a structurally invalid chunk: bad magic, unknown
// version, column counts that disagree with the header, or inconsistent
// columns. Frame-level corruption surfaces as wal.ErrWALCorrupt; both
// mean "discard this body".
var ErrChunkWire = errors.New("agg: malformed chunk")

// ChunkWireSize returns the encoded size of a chunk with the given row
// count (both columns full length), framing included — what a client
// sizes its body buffer with.
func ChunkWireSize(rows int) int {
	size := 0
	for rows > MaxWireChunkRows {
		size += ChunkWireSize(MaxWireChunkRows)
		rows -= MaxWireChunkRows
	}
	size += 8 + chunkHeaderSize // header frame
	if rows == 0 {
		return size
	}
	frames := (rows + chunkFrameRows - 1) / chunkFrameRows
	return size + 2*(rows*8+frames*(8+chunkColHeader))
}

// appendColumn appends one column's frames (id col, counts summing to
// len(vals), padded with pad zero rows at the end) to dst.
func appendColumn(dst []byte, col byte, vals []uint64, pad int) []byte {
	emit := func(part []uint64, zeros int) []byte {
		n := len(part) + zeros
		start := len(dst)
		dst = append(dst, make([]byte, wal.FrameHeader+chunkColHeader+8*n)...)
		payload := dst[start+wal.FrameHeader:]
		payload[0] = col
		binary.LittleEndian.PutUint32(payload[1:chunkColHeader], uint32(n))
		off := chunkColHeader
		for _, v := range part {
			binary.LittleEndian.PutUint64(payload[off:], v)
			off += 8
		}
		clear(payload[off:]) // the zero-extension tail
		wal.SealFrame(dst[start:])
		return dst
	}
	for len(vals) >= chunkFrameRows {
		dst = emit(vals[:chunkFrameRows], 0)
		vals = vals[chunkFrameRows:]
	}
	for pad > 0 && len(vals)+pad >= chunkFrameRows {
		take := chunkFrameRows - len(vals)
		dst = emit(vals, take)
		vals, pad = nil, pad-take
	}
	if len(vals)+pad > 0 {
		dst = emit(vals, pad)
	}
	return dst
}

// AppendChunkWire appends c's wire encoding to dst and returns the
// extended slice. A short value column is zero-extended on the wire; a
// chunk larger than MaxWireChunkRows is split into several consecutive
// wire chunks (the decoder hands them back one at a time — callers that
// stream chunks into an ingest path never notice). Returns dst unchanged
// and an error only through Validate-grade misuse, which it panics on —
// wire encoding of an invalid chunk is a programming error.
func AppendChunkWire(dst []byte, c Chunk) []byte {
	if err := c.Validate(); err != nil {
		panic(err)
	}
	for c.Rows() > MaxWireChunkRows {
		head := Chunk{Keys: c.Keys[:MaxWireChunkRows]}
		if len(c.Vals) > MaxWireChunkRows {
			head.Vals = c.Vals[:MaxWireChunkRows]
			c.Vals = c.Vals[MaxWireChunkRows:]
		} else {
			head.Vals = c.Vals
			c.Vals = nil
		}
		dst = AppendChunkWire(dst, head)
		c.Keys = c.Keys[MaxWireChunkRows:]
	}
	var hdr [chunkHeaderSize]byte
	copy(hdr[:4], chunkMagic)
	hdr[4] = chunkVersion
	hdr[5] = 0 // flags, reserved
	binary.LittleEndian.PutUint64(hdr[6:14], uint64(c.Rows()))
	dst = wal.AppendFrame(dst, hdr[:])
	if c.Rows() == 0 {
		return dst
	}
	dst = appendColumn(dst, chunkColKeys, c.Keys, 0)
	dst = appendColumn(dst, chunkColVals, c.Vals, c.Rows()-len(c.Vals))
	return dst
}

// decodeChunkHeader parses a header frame payload.
func decodeChunkHeader(payload []byte) (rows uint64, err error) {
	if err := wal.CheckHeader(payload, chunkMagic, chunkVersion, chunkHeaderSize, ErrChunkWire); err != nil {
		return 0, fmt.Errorf("chunk %w", err)
	}
	if payload[5] != 0 {
		return 0, fmt.Errorf("reserved chunk flags %#x: %w", payload[5], ErrChunkWire)
	}
	rows = binary.LittleEndian.Uint64(payload[6:14])
	if rows > MaxWireChunkRows {
		return 0, fmt.Errorf("chunk of %d rows exceeds %d: %w", rows, MaxWireChunkRows, ErrChunkWire)
	}
	return rows, nil
}

// ReadChunk reads one wire chunk from br. Both returned columns are
// freshly allocated and full length (rows each) — safe to hand straight
// to an ownership-transfer append. io.EOF means a clean end of the chunk
// stream (nothing read); any torn frame, CRC mismatch, or structural
// violation returns an error wrapping wal.ErrWALCorrupt or ErrChunkWire.
func ReadChunk(br *bufio.Reader) (Chunk, error) {
	payload, _, err := wal.ReadFrame(br)
	if err != nil {
		if err == io.EOF {
			return Chunk{}, io.EOF
		}
		return Chunk{}, fmt.Errorf("chunk header: %w", err)
	}
	rows, err := decodeChunkHeader(payload)
	if err != nil {
		return Chunk{}, err
	}
	if rows == 0 {
		return Chunk{}, nil
	}
	c := Chunk{Keys: make([]uint64, rows), Vals: make([]uint64, rows)}
	for _, col := range [2]struct {
		id  byte
		dst []uint64
	}{{chunkColKeys, c.Keys}, {chunkColVals, c.Vals}} {
		got := uint64(0)
		for got < rows {
			payload, _, err := wal.ReadFrame(br)
			if err != nil {
				return Chunk{}, fmt.Errorf("chunk column %d after %d/%d rows: %w", col.id, got, rows, err)
			}
			if len(payload) < chunkColHeader || payload[0] != col.id {
				return Chunk{}, fmt.Errorf("chunk column frame (want col %d): %w", col.id, ErrChunkWire)
			}
			n := uint64(binary.LittleEndian.Uint32(payload[1:chunkColHeader]))
			if n == 0 || got+n > rows || len(payload) != chunkColHeader+8*int(n) {
				return Chunk{}, fmt.Errorf("chunk column frame of %d rows at %d/%d: %w", n, got, rows, ErrChunkWire)
			}
			off := chunkColHeader
			for i := uint64(0); i < n; i++ {
				col.dst[got+i] = binary.LittleEndian.Uint64(payload[off:])
				off += 8
			}
			got += n
		}
	}
	return c, nil
}

// DecodeChunkWire decodes the first wire chunk in src, returning it and
// the bytes consumed — the buffer-at-once form of ReadChunk (tests, the
// fuzzer, and small clients use it; servers stream with ReadChunk).
func DecodeChunkWire(src []byte) (Chunk, int, error) {
	rd := bytes.NewReader(src)
	br := bufio.NewReader(rd)
	c, err := ReadChunk(br)
	if err != nil {
		return Chunk{}, 0, err
	}
	// The bufio layer may have pulled ahead of the chunk; consumed is what
	// it drew from src minus what still sits unread in its buffer.
	return c, len(src) - rd.Len() - br.Buffered(), nil
}
