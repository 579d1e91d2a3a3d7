package cluster

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"memagg/internal/agg"
	"memagg/internal/stream"
	"memagg/internal/wal"
)

// Partial-set wire format — what a node streams to the router on
// GET /partials: a header frame, then the snapshot's tables as one agg
// group run (internal/agg/grouprun.go — the record format and chunker
// checkpoint runs and view panes use), every frame the WAL's
// self-validating u32 length + u32 CRC32C + payload, so a truncated
// response is detected, not mis-read:
//
//	frame 0 (header):  "MAGP" u8:version u8:flags u64:watermark u64:groups
//	frame 1..k (run):  u32:ngroups, then ngroups group records
//
// flags bit0 = holistic: the records carry value multisets. The run is at
// least one frame and cut at agg.RunFrameBytes, so neither side ever
// buffers a frame larger than a few MiB; the header's group count tells
// the decoder when the set is complete, so there is no trailer — a short
// stream is a framing error.

// setVersion is the partial-set wire version. Bump on layout change; the
// decoder rejects versions it does not speak. Version 2 records carry a
// value count only in holistic sets (version 1 records always did).
const setVersion = 2

const setFlagHolistic = 1

const setMagic = "MAGP"

// ErrBadSet marks a structurally invalid partial set: bad magic, unknown
// version, or a stream that disagrees with its own header. Frame-level
// corruption surfaces as wal.ErrWALCorrupt and record-level corruption as
// agg.ErrGroupRun; all three mean "discard this response".
var ErrBadSet = errors.New("cluster: malformed partial set")

// setHeader is the decoded header frame.
type setHeader struct {
	Holistic  bool
	Watermark uint64
	Groups    uint64
}

func appendSetHeader(dst []byte, h setHeader) []byte {
	buf := make([]byte, 0, 22)
	buf = append(buf, setMagic...)
	buf = append(buf, setVersion)
	var flags byte
	if h.Holistic {
		flags |= setFlagHolistic
	}
	buf = append(buf, flags)
	buf = binary.LittleEndian.AppendUint64(buf, h.Watermark)
	buf = binary.LittleEndian.AppendUint64(buf, h.Groups)
	return wal.AppendFrame(dst, buf)
}

func decodeSetHeader(payload []byte) (setHeader, error) {
	if err := wal.CheckHeader(payload, setMagic, setVersion, 22, ErrBadSet); err != nil {
		return setHeader{}, err
	}
	return setHeader{
		Holistic:  payload[5]&setFlagHolistic != 0,
		Watermark: binary.LittleEndian.Uint64(payload[6:14]),
		Groups:    binary.LittleEndian.Uint64(payload[14:22]),
	}, nil
}

// EncodeSnapshot appends the full partial set of sn to dst and returns
// the extended slice: every group's merged partial, including buffered
// value multisets when the stream retains them. The result decodes to
// state Merge-equivalent to the snapshot — the node side of /partials. It
// fails only on a group too large for one frame (agg.ErrGroupRun).
func EncodeSnapshot(dst []byte, sn *stream.Snapshot) ([]byte, error) {
	parts := sn.Parts()
	dst = appendSetHeader(dst, setHeader{
		Holistic:  sn.HolisticEnabled(),
		Watermark: sn.Watermark(),
		Groups:    uint64(agg.Groups(parts)),
	})
	run := agg.NewRunWriter(nil, sn.HolisticEnabled(), func(frame []byte) error {
		dst = append(dst, frame...)
		return nil
	})
	run.Add(parts...)
	if err := run.Close(); err != nil {
		return nil, fmt.Errorf("cluster: encode partial set: %w", err)
	}
	return dst, nil
}

// DecodePartialSet reads one partial set from r straight into the partition
// set parts (agg's layout at len(parts)): each group lands in its key's
// partition, merging with any state already there. Returns the header
// (watermark, holistic flag) once the stream checks out end to end; any
// framing, record, or count mismatch fails the whole set, and parts must
// then be discarded.
func DecodePartialSet(r io.Reader, parts []agg.Table) (setHeader, error) {
	br := bufio.NewReaderSize(r, 64<<10)
	payload, _, err := wal.ReadFrame(br)
	if err != nil {
		return setHeader{}, fmt.Errorf("cluster: partial set header: %w", err)
	}
	hdr, err := decodeSetHeader(payload)
	if err != nil {
		return setHeader{}, err
	}
	var got uint64
	for frames := 0; frames == 0 || got < hdr.Groups; frames++ {
		payload, _, err := wal.ReadFrame(br)
		if err != nil {
			return setHeader{}, fmt.Errorf("cluster: partial set frame after %d/%d groups: %w", got, hdr.Groups, err)
		}
		n, err := agg.DecodeRunFrame(parts, payload, hdr.Holistic)
		if err != nil {
			return setHeader{}, fmt.Errorf("cluster: partial set after %d groups: %w", got, err)
		}
		got += uint64(n)
	}
	if got != hdr.Groups {
		return setHeader{}, fmt.Errorf("cluster: set has %d groups, header says %d: %w", got, hdr.Groups, ErrBadSet)
	}
	return hdr, nil
}
