package memagg

import (
	"errors"
	"fmt"

	"memagg/internal/agg"
	"memagg/internal/cview"
	"memagg/internal/stream"
	"memagg/internal/wal"
)

// Sentinel errors. Constructors and queries return errors that wrap these,
// so callers branch with errors.Is instead of string matching:
//
//	if _, err := memagg.New(b, opts); errors.Is(err, memagg.ErrUnknownBackend) { ... }
var (
	// ErrUnknownBackend reports a Backend no constructor recognises —
	// returned (wrapped) by New for a name outside Backends() and by
	// NewIndex for a non-tree backend.
	ErrUnknownBackend = errors.New("memagg: unknown backend")

	// ErrUnknownAllocator reports an Options.Allocator outside Allocators().
	ErrUnknownAllocator = errors.New("memagg: unknown allocator")

	// ErrUnsupportedQuery reports a query the chosen backend cannot
	// execute (hash backends answering Median or CountRange, holistic
	// queries on a distributive stream).
	ErrUnsupportedQuery = agg.ErrUnsupported

	// ErrClosed reports an AppendChunk, Flush or repeated Close on a closed
	// Stream.
	ErrClosed = stream.ErrClosed

	// ErrDurability reports that a durable Stream's write-ahead log failed:
	// the stream has degraded to read-only serving, and AppendChunk/Flush return
	// errors wrapping this sentinel (with the underlying fault attached).
	ErrDurability = stream.ErrDurability

	// ErrWALCorrupt marks invalid durable state — a torn or bit-flipped
	// WAL record (repaired automatically: recovery truncates to the longest
	// valid prefix) or a damaged checkpoint (OpenStream fails rather than
	// serve wrong aggregates).
	ErrWALCorrupt = wal.ErrWALCorrupt

	// ErrViewExists reports a RegisterView with a name already registered.
	ErrViewExists = cview.ErrExists

	// ErrUnknownView reports a View/ViewStatus of a name never registered
	// (or since dropped).
	ErrUnknownView = cview.ErrUnknown

	// ErrBadView reports an invalid ViewSpec (bad name, zero pane width,
	// pane count out of range, unknown query spelling or parameter).
	ErrBadView = cview.ErrBadSpec
)

// QueryError reports a query an Aggregator's backend cannot execute,
// carrying which backend and which query for error reports that span many
// backends (the harness, the HTTP server). It wraps ErrUnsupportedQuery:
// errors.Is(err, memagg.ErrUnsupportedQuery) holds.
type QueryError struct {
	Backend Backend
	Query   string
	Err     error
}

func (e *QueryError) Error() string {
	return fmt.Sprintf("memagg: %s on backend %s: %v", e.Query, e.Backend, e.Err)
}

func (e *QueryError) Unwrap() error { return e.Err }

// queryErr wraps an engine error in a QueryError naming this aggregator's
// backend.
func (a *Aggregator) queryErr(query string, err error) error {
	return &QueryError{Backend: a.backend, Query: query, Err: err}
}

// wrapped pairs a sentinel with a free-form message: errors.Is matches the
// sentinel while the message stays exactly what the call site wants (the
// sentinel text need not be a prefix of it, which fmt.Errorf("%w ...")
// would require).
type wrapped struct {
	msg string
	err error
}

func (e *wrapped) Error() string { return e.msg }
func (e *wrapped) Unwrap() error { return e.err }

func wrapErr(sentinel error, format string, args ...any) error {
	return &wrapped{msg: fmt.Sprintf(format, args...), err: sentinel}
}
