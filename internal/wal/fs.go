// Package wal is the durability layer's write-ahead log: a segmented
// append-only log of CRC32C-framed records, the on-disk half of the
// streaming subsystem's crash story (internal/stream). The format follows
// the spill discipline the aggregation literature converges on — partial
// aggregates and their source rows persist as sequential, partition-at-a-
// time runs, so both the write path (group-committed seal records) and
// the recovery path (one forward scan) are purely sequential I/O.
//
// Layout of a log directory:
//
//	dir/
//	  MANIFEST          current segment list, swapped atomically
//	  seg-00000001.wal  framed records, oldest first
//	  seg-00000002.wal  ...
//
// Records are framed [length | CRC32C | payload]; a torn or corrupt frame
// ends recovery at the last intact record (the tail is truncated), so a
// crash mid-write always yields the longest valid prefix — never a panic,
// never a wrong record.
//
// All file access goes through the FS interface so tests inject faults
// (ErrFS) or run against memory (MemFS); production uses OSFS.
package wal

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// FS is the filesystem the log and checkpointer write through. It exists
// for failpoint-style fault injection: ErrFS wraps any FS and makes the
// nth write/sync/rename fail, which is how the crash-recovery tests
// simulate dying disks and kill -9 at arbitrary points. OSFS is the real
// thing; MemFS backs tests and fuzzing.
type FS interface {
	// MkdirAll creates dir and any missing parents.
	MkdirAll(dir string) error
	// Create opens name for writing, truncating any existing content.
	Create(name string) (File, error)
	// Open opens name read-only.
	Open(name string) (File, error)
	// OpenAppend opens an existing name for writing at the end; Truncate
	// may first cut a torn tail.
	OpenAppend(name string) (File, error)
	// Rename atomically replaces newname with oldname — the commit point
	// of every manifest and checkpoint swap.
	Rename(oldname, newname string) error
	// SyncDir fsyncs dir itself. A rename or create only updates the
	// directory's entry list in memory; the entry survives power loss only
	// once the directory is synced, so every commit path (manifest swap,
	// checkpoint CURRENT swap) follows its rename with a SyncDir.
	SyncDir(dir string) error
	// Remove deletes name.
	Remove(name string) error
	// ReadDir lists the names in dir, sorted.
	ReadDir(dir string) ([]string, error)
	// Size reports name's length in bytes.
	Size(name string) (int64, error)
}

// File is one open log or checkpoint file.
type File interface {
	io.Reader
	io.Writer
	// Sync flushes written data to stable storage (fsync).
	Sync() error
	// Truncate cuts the file to size bytes (tail repair during recovery).
	Truncate(size int64) error
	Close() error
}

// OSFS is the production FS: the operating system's filesystem.
type OSFS struct{}

func (OSFS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

func (OSFS) Create(name string) (File, error) {
	return os.OpenFile(name, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
}

func (OSFS) Open(name string) (File, error) { return os.Open(name) }

func (OSFS) OpenAppend(name string) (File, error) {
	return os.OpenFile(name, os.O_RDWR|os.O_APPEND, 0o644)
}

func (OSFS) Rename(oldname, newname string) error { return os.Rename(oldname, newname) }

func (OSFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

func (OSFS) Remove(name string) error { return os.Remove(name) }

func (OSFS) ReadDir(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	return names, nil
}

func (OSFS) Size(name string) (int64, error) {
	st, err := os.Stat(name)
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// join builds FS paths; every FS implementation uses the host separator.
func join(elem ...string) string { return filepath.Join(elem...) }

// WriteFile creates name, fills it through write, fsyncs and closes it:
// every byte is durable before a later commit step can reference the
// file. It is the one create → write → Sync → Close sequence behind the
// log's manifest, checkpoint files and view snapshots.
func WriteFile(fs FS, name string, write func(io.Writer) error) error {
	f, err := fs.Create(name)
	if err != nil {
		return fmt.Errorf("create %s: %w", name, err)
	}
	if err := write(f); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", name, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("sync %s: %w", name, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("close %s: %w", name, err)
	}
	return nil
}

// ReplaceFile atomically replaces dir/name with data: WriteFile to
// name.tmp, rename it over name, then fsync dir. The rename is the commit
// point in memory and the directory fsync makes it the commit point on
// disk. deps are directories whose entries the new content refers to;
// they are fsynced first, so the committed file never names an entry a
// power loss could drop.
func ReplaceFile(fs FS, dir, name string, data []byte, deps ...string) error {
	for _, d := range deps {
		if err := fs.SyncDir(d); err != nil {
			return fmt.Errorf("sync dir %s: %w", d, err)
		}
	}
	tmp := join(dir, name+".tmp")
	err := WriteFile(fs, tmp, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
	if err != nil {
		return err
	}
	if err := fs.Rename(tmp, join(dir, name)); err != nil {
		return fmt.Errorf("rename %s: %w", tmp, err)
	}
	if err := fs.SyncDir(dir); err != nil {
		return fmt.Errorf("sync dir %s: %w", dir, err)
	}
	return nil
}
