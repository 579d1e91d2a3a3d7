// Package checkpoint serializes a stream's sealed base generation as
// radix-partitioned group runs of partial aggregates — the disk-resident
// form of the Hash_RX partitioning discipline the literature's spill
// formats converge on: each run holds the groups of one radix partition,
// written and read with purely sequential I/O, so recovery rebuilds the
// partitions independently and the WAL only needs to retain the suffix
// past the checkpoint's watermark.
//
// Layout of a checkpoint root:
//
//	root/
//	  CURRENT           names the durable checkpoint dir, swapped atomically
//	  ckpt-00000003/
//	    part-0000.run   one run per radix partition, one or more frames
//	    part-0001.run   ...
//	    META            framed: seq, watermark, groups, bits, holistic
//
// Every file reuses the WAL's [length | CRC32C | payload] frame. A run is
// the partition's table in agg's group-run codec (internal/agg/grouprun.go)
// with the partition index as each frame's head: large partitions chunk
// across frames so no frame approaches wal.MaxFrame (which ReadFrame
// rejects as corrupt), and Load decodes the frames straight into one
// agg.Table per partition. A half-written
// checkpoint can never be mistaken for a valid one: the CURRENT swap
// happens only after every run and META are written and synced (files and
// directories both), and a load validates every frame before handing
// state back.
package checkpoint

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"memagg/internal/agg"
	"memagg/internal/wal"
)

// Meta identifies one checkpoint.
type Meta struct {
	// Seq is the checkpoint sequence number (monotonic per stream).
	Seq uint64
	// Watermark is the number of rows the checkpoint covers: recovery
	// replays the WAL records past it.
	Watermark uint64
	// Groups is the total group count across partitions.
	Groups uint64
	// Bits is the radix fan-out of the partitioning; there are 1<<Bits
	// partition runs. A stream recovering from this checkpoint adopts
	// these bits for its base generation.
	Bits int
	// Holistic records whether the runs carry value multisets.
	Holistic bool
}

// Parts returns the number of partition runs.
func (m Meta) Parts() int { return 1 << m.Bits }

const (
	currentName = "CURRENT"
	metaName    = "META"
	metaMagic   = "mckp"
	metaVersion = 1
)

func ckptDirName(seq uint64) string { return fmt.Sprintf("ckpt-%08d", seq) }

func partName(q int) string { return fmt.Sprintf("part-%04d.run", q) }

// Writer writes one checkpoint: NewWriter creates the directory, one
// WritePartition call per partition streams the runs, and Commit writes
// META and atomically swaps CURRENT. Nothing is visible to Load until
// Commit returns nil.
type Writer struct {
	fs     wal.FS
	root   string
	dir    string
	meta   Meta
	groups uint64
}

// NewWriter starts checkpoint meta.Seq under root.
func NewWriter(fs wal.FS, root string, meta Meta) (*Writer, error) {
	w := &Writer{fs: fs, root: root, dir: filepath.Join(root, ckptDirName(meta.Seq)), meta: meta}
	if err := fs.MkdirAll(w.dir); err != nil {
		return nil, fmt.Errorf("checkpoint: mkdir: %w", err)
	}
	return w, nil
}

// WritePartition writes partition q's run: t's groups (the zero Table for
// an empty partition) as an agg group run whose frames open with q, value
// multisets included when the checkpoint is holistic. A single group too
// large to fit one frame fails the write — the caller skips the checkpoint
// and the WAL keeps covering the data.
func (w *Writer) WritePartition(q int, t agg.Table) error {
	err := wal.WriteFile(w.fs, filepath.Join(w.dir, partName(q)), func(f io.Writer) error {
		run := agg.NewRunWriter(binary.LittleEndian.AppendUint32(nil, uint32(q)), w.meta.Holistic,
			func(frame []byte) error {
				_, err := f.Write(frame)
				return err
			})
		run.Add(t)
		if err := run.Close(); err != nil {
			return err
		}
		w.groups += run.Groups()
		return nil
	})
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	return nil
}

// Commit writes META, then swaps CURRENT to this checkpoint — the atomic
// publication point — and removes superseded checkpoint directories.
func (w *Writer) Commit() error {
	payload := make([]byte, 0, 64)
	payload = append(payload, metaMagic...)
	payload = append(payload, metaVersion)
	var b [8]byte
	for _, v := range []uint64{w.meta.Seq, w.meta.Watermark, w.groups} {
		binary.LittleEndian.PutUint64(b[:], v)
		payload = append(payload, b[:]...)
	}
	payload = append(payload, byte(w.meta.Bits))
	if w.meta.Holistic {
		payload = append(payload, 1)
	} else {
		payload = append(payload, 0)
	}
	err := wal.WriteFile(w.fs, filepath.Join(w.dir, metaName), func(f io.Writer) error {
		_, err := f.Write(wal.AppendFrame(nil, payload))
		return err
	})
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	// Before CURRENT can reference the checkpoint, its directory entries
	// (runs, META) and the root's entry for the directory itself must be
	// durable — the files' own fsyncs pin their bytes, not their names.
	err = wal.ReplaceFile(w.fs, w.root, currentName, []byte(ckptDirName(w.meta.Seq)+"\n"), w.dir, w.root)
	if err != nil {
		return fmt.Errorf("checkpoint: commit: %w", err)
	}
	removeStale(w.fs, w.root, ckptDirName(w.meta.Seq))
	return nil
}

// Abort removes a checkpoint that will not be committed (a fault midway):
// best effort, the uncommitted directory is ignorable garbage either way.
func (w *Writer) Abort() { removeDir(w.fs, w.dir) }

// removeStale deletes every ckpt-* directory under root except keep.
func removeStale(fs wal.FS, root, keep string) {
	names, err := fs.ReadDir(root)
	if err != nil {
		return
	}
	for _, n := range names {
		if strings.HasPrefix(n, "ckpt-") && n != keep {
			removeDir(fs, filepath.Join(root, n))
		}
	}
}

// removeDir removes a directory's files then the directory itself, best
// effort (the FS interface has no recursive remove).
func removeDir(fs wal.FS, dir string) {
	if names, err := fs.ReadDir(dir); err == nil {
		for _, n := range names {
			_ = fs.Remove(filepath.Join(dir, n))
		}
	}
	_ = fs.Remove(dir)
}

// Load reads the durable checkpoint under root: its META and one table per
// partition (the zero Table for an empty one), unshared and ready to serve
// as a base generation. It returns (nil, nil,
// nil) only when no checkpoint exists (CURRENT absent); a checkpoint that
// fails validation returns an error wrapping wal.ErrWALCorrupt — the
// caller decides whether to fail recovery or start empty. Any other
// CURRENT open error fails the load: treating a transient I/O or
// permission error as "no checkpoint" would boot an empty stream while
// the WAL below the checkpoint watermark is already truncated.
func Load(fs wal.FS, root string) (*Meta, []agg.Table, error) {
	f, err := fs.Open(filepath.Join(root, currentName))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, nil, nil // no checkpoint yet
		}
		return nil, nil, fmt.Errorf("checkpoint: open CURRENT: %w", err)
	}
	data, err := io.ReadAll(f)
	f.Close()
	if err != nil {
		return nil, nil, fmt.Errorf("checkpoint: read CURRENT: %w", err)
	}
	dir := filepath.Join(root, strings.TrimSpace(string(data)))

	// One read buffer serves META and every run in turn: runs are
	// typically tens of KB, and a frame larger than the buffer is read
	// straight into its payload, so a bigger buffer buys nothing.
	r := bufio.NewReaderSize(nil, loadBufBytes)
	meta, err := loadMeta(fs, dir, r)
	if err != nil {
		return nil, nil, err
	}
	parts := make([]agg.Table, meta.Parts())
	for q := range parts {
		if err := loadPartition(fs, dir, q, meta.Holistic, r, parts[q:q+1]); err != nil {
			return nil, nil, err
		}
	}
	return meta, parts, nil
}

// loadBufBytes sizes Load's one shared read buffer.
const loadBufBytes = 64 << 10

func loadMeta(fs wal.FS, dir string, r *bufio.Reader) (*Meta, error) {
	payload, err := readFramedFile(fs, filepath.Join(dir, metaName), r)
	if err != nil {
		return nil, err
	}
	if err := wal.CheckHeader(payload, metaMagic, metaVersion, 31, wal.ErrWALCorrupt); err != nil {
		return nil, fmt.Errorf("checkpoint: bad META: %w", err)
	}
	m := &Meta{
		Seq:       binary.LittleEndian.Uint64(payload[5:13]),
		Watermark: binary.LittleEndian.Uint64(payload[13:21]),
		Groups:    binary.LittleEndian.Uint64(payload[21:29]),
		Bits:      int(payload[29]),
		Holistic:  payload[30] == 1,
	}
	// Past agg.MaxPartBits the radix partitioner clamps, so a recovered
	// stream would route keys to partitions these runs disagree with.
	if m.Bits < 1 || m.Bits > agg.MaxPartBits {
		return nil, fmt.Errorf("checkpoint: META bits %d: %w", m.Bits, wal.ErrWALCorrupt)
	}
	return m, nil
}

// loadPartition decodes partition q's run into part, a one-table window
// of Load's partition slice.
func loadPartition(fs wal.FS, dir string, q int, holistic bool, r *bufio.Reader, part []agg.Table) error {
	name := partName(q)
	f, err := fs.Open(filepath.Join(dir, name))
	if err != nil {
		return fmt.Errorf("checkpoint: open %s: %v: %w", name, err, wal.ErrWALCorrupt)
	}
	defer f.Close()
	r.Reset(f)
	for frames := 0; ; frames++ {
		payload, _, err := wal.ReadFrame(r)
		if err == io.EOF {
			if frames == 0 {
				return fmt.Errorf("checkpoint: empty run %s: %w", name, wal.ErrWALCorrupt)
			}
			return nil
		}
		if err != nil {
			return fmt.Errorf("checkpoint: %s: %w", name, err)
		}
		if len(payload) < 4 || int(binary.LittleEndian.Uint32(payload)) != q {
			return fmt.Errorf("checkpoint: bad run header %s: %w", name, wal.ErrWALCorrupt)
		}
		if _, err := agg.DecodeRunFrame(part, payload[4:], holistic); err != nil {
			return fmt.Errorf("checkpoint: %s: %w: %w", name, err, wal.ErrWALCorrupt)
		}
	}
}

// readFramedFile reads a whole single-frame file through r, validating
// its CRC.
func readFramedFile(fs wal.FS, path string, r *bufio.Reader) ([]byte, error) {
	f, err := fs.Open(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: open %s: %v: %w", path, err, wal.ErrWALCorrupt)
	}
	defer f.Close()
	r.Reset(f)
	payload, _, err := wal.ReadFrame(r)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %s: %w", path, err)
	}
	return payload, nil
}
