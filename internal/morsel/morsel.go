// Package morsel implements morsel-driven parallel scheduling: the input
// is carved into fixed-size row ranges ("morsels") handed to workers from a
// single atomic cursor, after Leis et al.'s "Morsel-Driven Parallelism"
// (SIGMOD 2014) — the scheduling discipline the global shared-table
// aggregation engine (Hash_GLB) builds on.
//
// The contrast with the chunked schedule of parallelChunks (internal/agg):
// a static p-way split assigns each worker 1/p of the input up front, so a
// worker that stalls — a heavy-hitter key run, a page fault, an unlucky
// preemption — leaves the rest idle at the barrier. Morsel dispatch keeps
// the assignment dynamic: every worker returns to the cursor for its next
// morsel, so skew is absorbed at morsel granularity. Parts is the same
// cursor over radix partitions instead of row ranges (Hash_RX's phase-2
// builds, the stream merger, the snapshot query kernels).
//
// The morsel size trades scheduling overhead against balance: one atomic
// add per morsel amortizes to nothing at thousands of rows, while morsels
// small enough to outnumber workers by a wide margin keep the tail of the
// build balanced. DefaultRows follows the literature's "a morsel should be
// a few thousand tuples" guidance.
package morsel

import "sync/atomic"

// DefaultRows is the morsel size used when a caller passes size <= 0:
// large enough that the per-morsel atomic add and batch-entry costs
// vanish, small enough that an input of any parallel-worthy size yields
// many more morsels than workers.
const DefaultRows = 2048

// Dispatcher hands out consecutive row ranges [lo, hi) of an n-row input,
// morsel by morsel, from one atomic cursor. Safe for concurrent use by any
// number of workers; every row belongs to exactly one dispatched morsel.
type Dispatcher struct {
	n    int
	size int
	cur  atomic.Int64
}

// New returns a dispatcher over n rows with the given morsel size
// (size <= 0 selects DefaultRows).
func New(n, size int) *Dispatcher {
	if size <= 0 {
		size = DefaultRows
	}
	return &Dispatcher{n: n, size: size}
}

// Next claims the next morsel. ok is false when the input is exhausted;
// the final morsel may be shorter than the configured size.
func (d *Dispatcher) Next() (lo, hi int, ok bool) {
	lo = int(d.cur.Add(int64(d.size))) - d.size
	if lo >= d.n {
		return 0, 0, false
	}
	hi = lo + d.size
	if hi > d.n {
		hi = d.n
	}
	return lo, hi, true
}

// Size returns the configured morsel size.
func (d *Dispatcher) Size() int { return d.size }

// Parts runs body(worker, part) for every partition index in [0, parts)
// across workers — the partition-granular form of Drive, with one claimed
// "morsel" per partition. It is the schedule shared by Hash_RX's partition
// builds, the stream merger's generation builds and the snapshot query
// kernels: radix partitions are
// few (2^MergeBits) and key-disjoint, so dynamic whole-partition dispatch
// absorbs skew (one heavy partition occupies one worker while the rest
// drain the cursor) without any cross-worker synchronization on results.
// The worker index is stable for the worker's lifetime, for per-worker
// accumulators; workers <= 1 runs every partition on the caller.
func Parts(parts, workers int, body func(worker, part int)) {
	Drive(parts, workers, 1, func(w, lo, hi int) {
		for q := lo; q < hi; q++ {
			body(w, q)
		}
	})
}

// Drive runs body over every morsel of an n-row input across the given
// number of workers (size <= 0 selects DefaultRows). body receives the
// worker index — stable for the worker's lifetime, for per-worker local
// state — and the claimed range. Drive returns when every row has been
// processed; worker counts are clamped so no goroutine can go idle from
// the start (at most one worker per morsel).
func Drive(n, workers, size int, body func(worker, lo, hi int)) {
	if n == 0 {
		return
	}
	if size <= 0 {
		size = DefaultRows
	}
	if maxW := (n + size - 1) / size; workers > maxW {
		workers = maxW
	}
	if workers <= 1 {
		body(0, 0, n)
		return
	}
	d := New(n, size)
	done := make(chan struct{})
	for w := 1; w < workers; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			for {
				lo, hi, ok := d.Next()
				if !ok {
					return
				}
				body(w, lo, hi)
			}
		}(w)
	}
	for {
		lo, hi, ok := d.Next()
		if !ok {
			break
		}
		body(0, lo, hi)
	}
	for w := 1; w < workers; w++ {
		<-done
	}
}
