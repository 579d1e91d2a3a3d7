package wal

import (
	"errors"
	"sync"
)

// Op classifies the filesystem operations ErrFS can fail.
type Op int

const (
	OpCreate Op = iota
	OpOpen
	OpWrite
	OpSync
	OpRename
	OpRemove
	numOps
)

func (o Op) String() string {
	switch o {
	case OpCreate:
		return "create"
	case OpOpen:
		return "open"
	case OpWrite:
		return "write"
	case OpSync:
		return "sync"
	case OpRename:
		return "rename"
	case OpRemove:
		return "remove"
	}
	return "?"
}

// ErrInjected is the error every tripped ErrFS operation returns.
var ErrInjected = errors.New("wal: injected fault")

// ErrFS is the failpoint filesystem: it wraps any FS and, once armed,
// fails the nth operation of a chosen kind — and every mutating operation
// after it. That "fail forever after the trip" semantic is the crash
// model: when a disk dies or a process is killed, nothing after the fault
// reaches storage, so the bytes visible at recovery are exactly the bytes
// written before the trip. Arming OpWrite with PartialWrites simulates a
// torn write: the tripping write persists only its first half, leaving a
// torn frame for recovery to truncate.
//
// ErrFS is safe for concurrent use (the log and the checkpointer write
// from different goroutines).
type ErrFS struct {
	inner FS

	mu            sync.Mutex
	countdown     [numOps]int // 0 = disarmed; n = trip on the nth op
	tripped       bool
	partialWrites bool
}

// NewErrFS wraps inner with no faults armed.
func NewErrFS(inner FS) *ErrFS { return &ErrFS{inner: inner} }

// FailAfter arms the fault: the nth subsequent operation of kind op (1 =
// the very next one) fails with ErrInjected, and the ErrFS stays tripped —
// all later mutating operations fail too.
func (e *ErrFS) FailAfter(op Op, n int) {
	e.mu.Lock()
	e.countdown[op] = n
	e.mu.Unlock()
}

// SetPartialWrites makes the tripping write persist the first half of its
// buffer before failing (a torn write), instead of nothing.
func (e *ErrFS) SetPartialWrites(v bool) {
	e.mu.Lock()
	e.partialWrites = v
	e.mu.Unlock()
}

// Cut trips the ErrFS immediately: every subsequent operation fails.
func (e *ErrFS) Cut() {
	e.mu.Lock()
	e.tripped = true
	e.mu.Unlock()
}

// step advances op's countdown. It returns (fail, partial): fail when this
// operation must error, partial when a tripping write should persist its
// first half.
func (e *ErrFS) step(op Op) (bool, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.tripped {
		return true, false
	}
	if e.countdown[op] > 0 {
		e.countdown[op]--
		if e.countdown[op] == 0 {
			e.tripped = true
			return true, e.partialWrites && op == OpWrite
		}
	}
	return false, false
}

func (e *ErrFS) MkdirAll(dir string) error { return e.inner.MkdirAll(dir) }

func (e *ErrFS) Create(name string) (File, error) {
	if fail, _ := e.step(OpCreate); fail {
		return nil, ErrInjected
	}
	f, err := e.inner.Create(name)
	if err != nil {
		return nil, err
	}
	return &errFile{fs: e, f: f}, nil
}

func (e *ErrFS) Open(name string) (File, error) {
	if fail, _ := e.step(OpOpen); fail {
		return nil, ErrInjected
	}
	return e.inner.Open(name)
}

func (e *ErrFS) OpenAppend(name string) (File, error) {
	if fail, _ := e.step(OpOpen); fail {
		return nil, ErrInjected
	}
	f, err := e.inner.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return &errFile{fs: e, f: f}, nil
}

func (e *ErrFS) Rename(oldname, newname string) error {
	if fail, _ := e.step(OpRename); fail {
		return ErrInjected
	}
	return e.inner.Rename(oldname, newname)
}

// SyncDir shares OpSync's countdown: a directory fsync is a sync as far
// as a dying disk is concerned.
func (e *ErrFS) SyncDir(dir string) error {
	if fail, _ := e.step(OpSync); fail {
		return ErrInjected
	}
	return e.inner.SyncDir(dir)
}

func (e *ErrFS) Remove(name string) error {
	if fail, _ := e.step(OpRemove); fail {
		return ErrInjected
	}
	return e.inner.Remove(name)
}

func (e *ErrFS) ReadDir(dir string) ([]string, error) { return e.inner.ReadDir(dir) }

func (e *ErrFS) Size(name string) (int64, error) { return e.inner.Size(name) }

// errFile intercepts the write-side File operations.
type errFile struct {
	fs *ErrFS
	f  File
}

func (f *errFile) Read(p []byte) (int, error) { return f.f.Read(p) }

func (f *errFile) Write(p []byte) (int, error) {
	fail, partial := f.fs.step(OpWrite)
	if fail {
		if partial && len(p) > 1 {
			n, _ := f.f.Write(p[:len(p)/2])
			return n, ErrInjected
		}
		return 0, ErrInjected
	}
	return f.f.Write(p)
}

func (f *errFile) Sync() error {
	if fail, _ := f.fs.step(OpSync); fail {
		return ErrInjected
	}
	return f.f.Sync()
}

func (f *errFile) Truncate(size int64) error {
	if fail, _ := f.fs.step(OpWrite); fail {
		return ErrInjected
	}
	return f.f.Truncate(size)
}

func (f *errFile) Close() error { return f.f.Close() }
