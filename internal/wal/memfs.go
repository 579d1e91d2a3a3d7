package wal

import (
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// MemFS is an in-memory FS for tests and fuzzing: the same semantics the
// log relies on from a real filesystem (atomic rename, append, truncate),
// with direct access to file bytes so tests flip bits and cut tails
// without touching disk. A MemFS survives "reopening" — recovery tests
// crash a stream through an ErrFS wrapper and reopen the same MemFS to
// see exactly the bytes that made it out before the fault.
//
// A removed file's memory is recycled: Remove puts its buffer on the
// MemFS's free list and Create hands the largest free buffer to the new
// file, so a test that writes and removes the same files over and over —
// the WAL overhead guard — writes into memory it has touched before, as a
// disk filesystem writes into recycled page cache, instead of paying
// growth copies and page faults on fresh memory every round. A handle
// still open on a removed file no longer sees its content.
//
// MemFS is safe for concurrent use.
type MemFS struct {
	mu    sync.Mutex
	files map[string]*memFile
	dirs  map[string]bool
	free  [][]byte // removed files' buffers, emptied, for Create
}

type memFile struct {
	mu   sync.Mutex
	data []byte
}

// NewMemFS returns an empty in-memory filesystem.
func NewMemFS() *MemFS {
	return &MemFS{files: map[string]*memFile{}, dirs: map[string]bool{"": true, ".": true}}
}

func clean(name string) string { return filepath.Clean(name) }

func (m *MemFS) MkdirAll(dir string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	d := clean(dir)
	for d != "." && d != string(filepath.Separator) {
		m.dirs[d] = true
		d = filepath.Dir(d)
	}
	return nil
}

func (m *MemFS) Create(name string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f := &memFile{}
	if len(m.free) > 0 {
		big := 0
		for i, b := range m.free {
			if cap(b) > cap(m.free[big]) {
				big = i
			}
		}
		f.data = m.free[big]
		m.free[big] = m.free[len(m.free)-1]
		m.free = m.free[:len(m.free)-1]
	}
	m.files[clean(name)] = f
	return &memHandle{f: f}, nil
}

func (m *MemFS) Open(name string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[clean(name)]
	if !ok {
		return nil, fmt.Errorf("memfs: open %s: %w", name, errNotExist)
	}
	return &memHandle{f: f}, nil
}

func (m *MemFS) OpenAppend(name string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[clean(name)]
	if !ok {
		return nil, fmt.Errorf("memfs: open %s: %w", name, errNotExist)
	}
	return &memHandle{f: f, appendMode: true}, nil
}

func (m *MemFS) Rename(oldname, newname string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[clean(oldname)]
	if !ok {
		return fmt.Errorf("memfs: rename %s: %w", oldname, errNotExist)
	}
	delete(m.files, clean(oldname))
	m.files[clean(newname)] = f
	return nil
}

// SyncDir is a no-op: MemFS directory entries are always "durable".
func (m *MemFS) SyncDir(string) error { return nil }

func (m *MemFS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[clean(name)]
	if !ok {
		return fmt.Errorf("memfs: remove %s: %w", name, errNotExist)
	}
	delete(m.files, clean(name))
	f.mu.Lock()
	if cap(f.data) > 0 {
		m.free = append(m.free, f.data[:0])
	}
	f.data = nil
	f.mu.Unlock()
	return nil
}

func (m *MemFS) ReadDir(dir string) ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	prefix := clean(dir) + string(filepath.Separator)
	var names []string
	for p := range m.files {
		if strings.HasPrefix(p, prefix) && !strings.Contains(p[len(prefix):], string(filepath.Separator)) {
			names = append(names, p[len(prefix):])
		}
	}
	sort.Strings(names)
	return names, nil
}

func (m *MemFS) Size(name string) (int64, error) {
	m.mu.Lock()
	f, ok := m.files[clean(name)]
	m.mu.Unlock()
	if !ok {
		return 0, fmt.Errorf("memfs: stat %s: %w", name, errNotExist)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return int64(len(f.data)), nil
}

// Bytes returns a copy of name's current content, or nil when absent —
// the test hook for corrupting a log (flip a byte, cut the tail, write it
// back with SetBytes).
func (m *MemFS) Bytes(name string) []byte {
	m.mu.Lock()
	f, ok := m.files[clean(name)]
	m.mu.Unlock()
	if !ok {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]byte(nil), f.data...)
}

// SetBytes replaces name's content, creating the file if needed.
func (m *MemFS) SetBytes(name string, data []byte) {
	m.mu.Lock()
	f, ok := m.files[clean(name)]
	if !ok {
		f = &memFile{}
		m.files[clean(name)] = f
	}
	m.mu.Unlock()
	f.mu.Lock()
	f.data = append([]byte(nil), data...)
	f.mu.Unlock()
}

// Clone returns an independent copy of the filesystem as it stands: a
// crash image another stream can recover from while the original keeps
// running.
func (m *MemFS) Clone() *MemFS {
	m.mu.Lock()
	defer m.mu.Unlock()
	c := NewMemFS()
	for d := range m.dirs {
		c.dirs[d] = true
	}
	for name, f := range m.files {
		f.mu.Lock()
		c.files[name] = &memFile{data: append([]byte(nil), f.data...)}
		f.mu.Unlock()
	}
	return c
}

// memHandle is one open descriptor: a private read offset over the shared
// content. Writes go to the end in append mode (the only write mode the
// log uses on existing files) or at the handle's offset for Create'd
// files, which the log writes strictly sequentially.
type memHandle struct {
	f          *memFile
	off        int
	appendMode bool
}

func (h *memHandle) Read(p []byte) (int, error) {
	h.f.mu.Lock()
	defer h.f.mu.Unlock()
	if h.off >= len(h.f.data) {
		return 0, io.EOF
	}
	n := copy(p, h.f.data[h.off:])
	h.off += n
	return n, nil
}

func (h *memHandle) Write(p []byte) (int, error) {
	h.f.mu.Lock()
	defer h.f.mu.Unlock()
	h.f.data = append(h.f.data, p...)
	return len(p), nil
}

func (h *memHandle) Sync() error { return nil }

func (h *memHandle) Truncate(size int64) error {
	h.f.mu.Lock()
	defer h.f.mu.Unlock()
	if int(size) < len(h.f.data) {
		h.f.data = h.f.data[:size]
	}
	return nil
}

func (h *memHandle) Close() error { return nil }
