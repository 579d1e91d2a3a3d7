// Package stream is the streaming aggregation subsystem: it maintains the
// repo's aggregate queries while rows keep arriving, instead of requiring a
// complete dataset up front like the batch engines in internal/agg.
//
// The design is a miniature LSM for aggregate state, built from three
// pieces the repo already has:
//
//   - Sharded ingest. N writer shards each own a private delta of one of
//     two kinds, both partitioned at the base's radix fan-out. A table
//     delta is a partition set of hashtbl.LinearProbe tables over
//     agg.Partial (every group's distributive folds maintained eagerly,
//     plus value lists in one arena per delta when holistic queries are
//     enabled), each row routed to its partition by the hash its probe
//     computes anyway, and each partition sized from the group count it
//     reached in the shard's previous table delta. A run delta
//     aggregates nothing: it keeps the batches' columns and at seal
//     scatters them by partition. A shard takes runs while its last
//     table delta cut its rows by less than runCutoff — then the tables
//     would buy the merge almost nothing — with every tableEvery-th
//     delta a table again to keep measuring. Past the default fan-out
//     every delta is a run: a stream sized for that many partitions
//     expects more groups than a delta holds rows.
//     Appends are batched and flow through a bounded channel per shard:
//     when a shard falls behind, AppendChunk blocks — the backpressure
//     contract; rows are never dropped.
//
//   - Sealed deltas and merged generations. When a delta reaches the seal
//     threshold its shard freezes it and publishes it into the queryable
//     view; a background merger folds batches of sealed deltas into a new
//     base generation, partition q of every delta into partition q of the
//     base, so the fold parallelizes over disjoint key partitions (the
//     Hash_RX discipline: every key lives in exactly one partition, so
//     partitions merge independently with no locks). Partitions untouched
//     by a merge cycle are shared structurally with the previous
//     generation. A base no reader has pinned is folded into in place —
//     the update-in-place hash build, no copy — and only partitions a
//     snapshot or the checkpointer can see, directly or through an older
//     generation, are rebuilt copy-on-write.
//
//   - Snapshot queries. Snapshot pins the current view — one base
//     generation plus the sealed deltas not yet merged — with an atomic
//     pointer load and one compare-and-swap that marks the base shared: no
//     stop-the-world, no reader/writer locks. A pinned view is immutable,
//     so readers compute any Q1–Q7 result consistent with the view's
//     row-count watermark while writers and the merger proceed. The one
//     wait is a pin that finds the base already claimed by an in-place
//     fold: it waits for that single merge cycle and pins the view it
//     installs. Superseded state is reclaimed by the garbage collector once
//     the last snapshot drops it (GC is the epoch scheme).
//
// Mergeability is what makes the whole scheme sound: agg.Partial.Merge is
// exact for every distributive ReduceOp and for the algebraic avg, and the
// holistic functions are order-insensitive over the merged value multiset,
// so any interleaving of shards, seals and merges yields results identical
// to a batch engine run over the same rows (the stream-vs-batch equivalence
// gate in equiv_test.go checks exactly that).
package stream

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"memagg/internal/agg"
	"memagg/internal/cview"
	"memagg/internal/obs"
)

// ErrClosed is returned by AppendChunk and Flush after Close.
var ErrClosed = errors.New("stream: closed")

// Config sizes a Stream. The zero value is usable; every field has a
// sensible default. Merge cycles, WAL replay, snapshot queries and
// continuous-view reads run at GOMAXPROCS.
type Config struct {
	// Shards is the number of writer shards (private deltas fed by
	// independent queues). <= 0 uses GOMAXPROCS.
	Shards int

	// SealRows is the delta size (rows) that triggers a seal: the shard
	// freezes the delta, publishes it to the queryable view, and starts a
	// fresh one. Smaller values lower snapshot staleness but merge more
	// often. <= 0 means 32768.
	SealRows int

	// MergeBits is the radix fan-out of the base generation: groups are
	// partitioned by the top MergeBits of the shared hash finalizer, and
	// merge cycles rebuild only the partitions that received delta rows.
	// Every delta is partitioned at MergeBits, so a merge folds delta
	// partition q into base partition q. Up to the default's 6 bits
	// (maxDeltaBits) a shard picks table or run deltas by what its last
	// table delta measured; past them every delta is a run. Fixed for
	// the stream's lifetime. <= 0 means 6 (64 partitions); clamped to
	// [1, agg.MaxPartBits]. Continuous-view panes and the windows their
	// reads fold sit at the smaller of MergeBits and 6 (see paneBits).
	MergeBits int

	// Holistic retains every group's value multiset (arena-backed lists),
	// enabling median/quantile/mode snapshot queries at the memory cost
	// holistic functions always carry. Off, holistic queries return
	// agg.ErrUnsupported.
	Holistic bool

	// DisableMerger turns the background merger off: sealed deltas
	// accumulate in the view and snapshot queries fold them partition-wise
	// per view instead. Compaction then happens only through explicit
	// MergeNow calls — the manual-compaction mode the query benchmarks and
	// read-replica deployments use. Not meant for durable streams
	// (checkpoints ride on merge cycles).
	DisableMerger bool

	// Durability enables the write-ahead log and checkpoints (see the
	// Durability type). Streams with durability enabled must be built with
	// Open, which recovers existing state; New panics on a durable config.
	Durability Durability

	// testBatchHook, when set, runs in the shard goroutine for every batch
	// received. Test-only: it lets the backpressure test stall a shard
	// deterministically.
	testBatchHook func()

	// queryWorkers is the parallelism of snapshot queries and
	// continuous-view reads: the partition-wise fold of sealed deltas (or
	// a window's panes) and the partition scans of the query kernels.
	// Reads whose group count falls below agg.SerialQueryCutoff scan on
	// the calling goroutine regardless. <= 0 uses GOMAXPROCS. Test-only:
	// tests set it to compare worker counts.
	queryWorkers int
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = runtime.GOMAXPROCS(0)
	}
	if c.SealRows <= 0 {
		c.SealRows = 1 << 15
	}
	if c.MergeBits <= 0 {
		c.MergeBits = maxDeltaBits
	}
	if c.MergeBits > agg.MaxPartBits {
		c.MergeBits = agg.MaxPartBits
	}
	if c.queryWorkers <= 0 {
		c.queryWorkers = runtime.GOMAXPROCS(0)
	}
	return c
}

// maxDeltaBits is the largest fan-out a table delta is built at, the
// default MergeBits. A SealRows delta spread over more partitions leaves
// each only a handful of rows (at MergeBits 12 about 8 rows in each of
// 4,096 tables per 32 Ki-row delta), and a stream sized for that many
// partitions expects so many groups that a delta holds under one row per
// group: its tables would aggregate nothing. Past the cap every delta is
// therefore a run, which needs no tables.
const maxDeltaBits = 6

// paneBits is the fan-out of continuous-view panes and of the windows
// their reads fold: MergeBits up to maxDeltaBits, so every table delta
// sits at the pane fan-out and every run at it or finer.
func (c Config) paneBits() int { return min(c.MergeBits, maxDeltaBits) }

// Stream is a live streaming aggregation: AppendChunk feeds it, Snapshot
// reads it. AppendChunk is safe for concurrent use by multiple producers;
// Snapshot and Stats are safe from any goroutine at any time; Close is
// idempotent and safe to race with AppendChunk and Flush (concurrent
// callers get ErrClosed).
type Stream struct {
	cfg    Config
	shards []*shard
	m      *metrics
	dur    *durable        // nil when durability is disabled
	views  *cview.Registry // continuous views, fed from publish

	// view is the queryable state: a (base, sealed deltas, watermark)
	// triple swapped atomically. viewMu serializes installs (seals and
	// merge publications); readers never take it, and pin the base
	// instead (see pin).
	view   atomic.Pointer[view]
	viewMu sync.Mutex

	wake    chan struct{} // merger doorbell (capacity 1)
	mergeMu sync.Mutex    // serializes merge cycles (background merger vs MergeNow)

	rr     atomic.Uint64 // round-robin shard cursor
	closed atomic.Bool

	// closeMu fences AppendChunk/Flush (read side) against Close (write side):
	// Close cannot close the shard channels while a send is in flight, and
	// a call that loses the race observes closed and returns ErrClosed
	// instead of panicking on a closed channel.
	closeMu sync.RWMutex

	shardWG  sync.WaitGroup
	mergerWG sync.WaitGroup
}

// view is one queryable state. watermark is the number of rows the view
// covers: base.rows plus the sealed deltas' rows. Rows still in shard
// queues or unsealed deltas are not yet visible. Readers take views
// through pin, after which everything the view references is immutable.
//
// The fold hangs off the view rather than the Snapshot: the partition-wise
// fold of a pinned view's sealed deltas (srcs) is computed once and shared
// by every snapshot that pins the view, no matter how many are taken. It
// dies with the view.
type view struct {
	base      *generation
	sealed    []*delta
	watermark uint64

	// fold guards srcs: the view's key-disjoint source tables. With no
	// sealed deltas the base partitions serve directly (zero copy, set
	// eagerly); otherwise the first query folds base + deltas partition by
	// partition (see foldDeltas).
	fold sync.Once
	srcs []agg.Table
}

// queueDepth bounds each shard's ingest channel, in batches. A full queue
// blocks AppendChunk — backpressure, not loss.
const queueDepth = 8

// batch is one ingest unit: either rows (keys/vals, equal length) or a
// flush marker (ack non-nil). The columns are the producer's, read in
// place: a volatile shard drops them once a table delta has absorbed
// them or a run delta's seal has scattered them, a durable one once its
// delta's WAL record is written.
type batch struct {
	keys, vals []uint64
	ack        chan<- struct{}
}

// New starts a volatile stream: Shards writer goroutines plus one merger.
// A config with durability enabled must go through Open (there may be
// state on disk to recover); New panics on one.
func New(cfg Config) *Stream {
	if cfg.Durability.Enabled() {
		panic("stream: config enables durability; use Open, not New")
	}
	s := newStream(cfg.withDefaults())
	s.start()
	return s
}

// newStream builds a stream without starting its goroutines, so Open can
// install recovered state into the view first. cfg must already have
// defaults applied.
func newStream(cfg Config) *Stream {
	s := &Stream{cfg: cfg, wake: make(chan struct{}, 1)}
	s.m = newMetrics(s)
	s.views = cview.NewRegistry(cfg.Holistic, cfg.paneBits(), cfg.queryWorkers, s.m.cviewMetrics())
	s.view.Store(&view{})
	return s
}

// start launches the shard writers, the merger, and (when durable) the
// checkpointer.
func (s *Stream) start() {
	s.shards = make([]*shard, s.cfg.Shards)
	for i := range s.shards {
		sh := &shard{s: s, ch: make(chan batch, queueDepth)}
		s.shards[i] = sh
		s.shardWG.Add(1)
		go sh.run()
	}
	s.mergerWG.Add(1)
	go s.mergerLoop()
	if s.dur != nil {
		s.dur.ckWG.Add(1)
		go s.checkpointLoop()
	}
}

// AppendChunk ingests one columnar chunk and hands it to one shard,
// round-robin; if that shard's queue is full, AppendChunk blocks until
// the shard drains — rows are never dropped. Rows become visible to
// snapshots once their delta seals (see Flush).
//
// The stream takes the columns without copying and only reads them: the
// receiving shard folds them straight into a table delta or keeps them
// until a run delta's seal scatters them, and a durable stream keeps
// them until the delta's WAL record is written. The caller must not
// modify either column again. A short value column zero-extends
// into a fresh column; the caller's is never grown.
func (s *Stream) AppendChunk(c agg.Chunk) error {
	if err := c.Validate(); err != nil {
		return err
	}
	s.closeMu.RLock()
	defer s.closeMu.RUnlock()
	if s.closed.Load() {
		return ErrClosed
	}
	if s.dur != nil && s.dur.degraded.Load() {
		return s.dur.degradedErr()
	}
	n := len(c.Keys)
	if n == 0 {
		return nil
	}
	mk := obs.Start()
	b := batch{keys: c.Keys, vals: c.Vals}
	if len(b.vals) < n {
		b.vals = make([]uint64, n)
		copy(b.vals, c.Vals)
	}
	// Count before the send: a fast shard may seal these rows the moment
	// they land, and the watermark must never be observed ahead of the
	// ingested count (rows waiting in a queue are "ingested, not visible").
	s.m.rows.Add(uint64(n))
	s.m.batches.Inc()
	sh := s.shards[int(s.rr.Add(1)-1)%len(s.shards)]
	select {
	case sh.ch <- b:
	default:
		// Queue full: the backpressure path. Time the blocking send so the
		// blocked-nanos counter exposes how long producers stall. The fast
		// path above pays only a channel try-send for this accounting.
		start := time.Now()
		sh.ch <- b
		s.m.blockedNs.Add(uint64(time.Since(start)))
	}
	mk.Tick(s.m.appendLat)
	return nil
}

// Flush seals every shard's current delta and returns once the rows of all
// batches this caller appended before the call are visible to snapshots
// (the per-shard queues are FIFO, so the flush markers drain behind them).
// It does not wait for the merger; sealed deltas are already queryable.
func (s *Stream) Flush() error {
	s.closeMu.RLock()
	defer s.closeMu.RUnlock()
	if s.closed.Load() {
		return ErrClosed
	}
	if s.dur != nil && s.dur.degraded.Load() {
		return s.dur.degradedErr()
	}
	ack := make(chan struct{}, len(s.shards))
	for _, sh := range s.shards {
		sh.ch <- batch{ack: ack}
	}
	for range s.shards {
		<-ack
	}
	return nil
}

// Close seals all remaining rows, waits for the merger to fold every
// sealed delta into a final base generation, and stops the background
// goroutines. The stream stays queryable (Snapshot/Stats) after Close;
// further AppendChunk/Flush calls return ErrClosed, as does a second Close —
// it is idempotent and safe to call concurrently with AppendChunk and Flush
// (in-flight calls complete first; late callers get ErrClosed).
func (s *Stream) Close() error {
	s.closeMu.Lock()
	if !s.closed.CompareAndSwap(false, true) {
		s.closeMu.Unlock()
		return ErrClosed
	}
	// With the write lock held no AppendChunk/Flush send is in flight and none
	// can start (they observe closed under the read lock), so closing the
	// shard channels cannot race a send.
	for _, sh := range s.shards {
		close(sh.ch)
	}
	s.closeMu.Unlock()
	s.shardWG.Wait()
	close(s.wake)
	s.mergerWG.Wait()
	s.closeDurability()
	return nil
}

// Closed reports whether Close has begun: the stream refuses ingest but
// keeps serving snapshots. With ReadOnly it feeds readiness probes
// (/readyz in cmd/aggserve) — a closed or degraded node should leave the
// ingest rotation while staying queryable.
func (s *Stream) Closed() bool { return s.closed.Load() }

// install publishes nv as the current view. Callers hold viewMu. The
// watermark is append-only state, so it must never move backwards — a
// regression here would hand snapshots an inconsistent row count.
func (s *Stream) install(nv *view) {
	if cur := s.view.Load(); cur != nil && nv.watermark < cur.watermark {
		panic("stream: watermark moved backwards")
	}
	s.view.Store(nv)
}

// publish appends a freshly sealed delta to the view (making its rows
// visible) and rings the merger's doorbell. With durability enabled the
// delta's record hits the WAL first, still under viewMu — write-ahead: by
// the time a snapshot can observe the rows, the log already carries them.
func (s *Stream) publish(d *delta) {
	s.viewMu.Lock()
	v := s.view.Load()
	endWM := v.watermark + d.rows
	s.logSeal(d, endWM)
	sealed := make([]*delta, len(v.sealed)+1)
	copy(sealed, v.sealed)
	sealed[len(v.sealed)] = d
	s.install(&view{base: v.base, sealed: sealed, watermark: endWM})
	// Continuous views absorb the delta under the same lock: pane
	// assignment follows publication (= WAL) order exactly, and a view
	// registered at watermark w sees precisely the seals past w.
	if s.views.Active() {
		s.views.OnSeal(v.watermark, endWM, d.rows, d.src)
	}
	s.viewMu.Unlock()
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// Stats is a point-in-time report of the stream's ingest and merge state.
// Its JSON encoding is the /v1/stats body, so field names and order are
// wire format; durations are int64 nanoseconds.
type Stats struct {
	// Shards and Holistic echo the stream's configuration.
	Shards   int
	Holistic bool

	// Ingested counts rows accepted by AppendChunk; Watermark counts rows
	// visible to a Snapshot taken now; Staleness is their difference (rows
	// still in shard queues or unsealed deltas).
	Ingested  uint64
	Watermark uint64
	Staleness uint64

	// Batches counts AppendChunk calls that carried rows; Seals counts deltas
	// frozen and published, RunSeals those of them that were runs (rows
	// scattered by partition, no tables: the shard's recent deltas cut
	// their rows too little to pay for tables); Snapshots counts Snapshot
	// calls; BlockedNanos is the total time AppendChunk spent stalled on
	// full shard queues (backpressure).
	Batches      uint64
	Seals        uint64
	RunSeals     uint64
	Snapshots    uint64
	BlockedNanos int64

	// SealedPending is the number of sealed deltas awaiting merge;
	// Generation counts base generations built; Groups is the group count
	// of the current base (excluding unmerged deltas).
	SealedPending int
	Generation    uint64
	Groups        int

	// Merges counts merge cycles; MergeTotalNanos and MergeLastNanos time
	// them.
	Merges          uint64
	MergeTotalNanos int64
	MergeLastNanos  int64

	// Continuous-view state: registered views, live panes across them,
	// pane evictions, per-view-per-seal fold updates, and reads.
	Views            int
	ViewPanesLive    int
	ViewPanesEvicted uint64
	ViewUpdates      uint64
	ViewReads        uint64

	// Durable reports whether the stream runs with a WAL; ReadOnly whether
	// the durability layer failed and ingest is refused. The remaining
	// fields are zero for volatile streams. CheckpointWatermark is the row
	// count covered by the last durable checkpoint (recovery loads it and
	// replays only the WAL suffix past it).
	Durable             bool
	ReadOnly            bool
	WALAppends          uint64
	WALFsyncs           uint64
	WALSegmentRotations uint64
	WALSizeBytes        int64
	Checkpoints         uint64
	CheckpointWatermark uint64
}

// Stats reports the stream's current state, read from the same obs-backed
// instruments /metrics serves. Safe from any goroutine.
func (s *Stream) Stats() Stats {
	v := s.view.Load()
	ing := s.m.rows.Value()
	st := Stats{
		Shards:          len(s.shards),
		Holistic:        s.cfg.Holistic,
		Ingested:        ing,
		Watermark:       v.watermark,
		Batches:         s.m.batches.Value(),
		Seals:           s.m.seals.Value(),
		RunSeals:        s.m.runSeals.Value(),
		Snapshots:       s.m.snapshots.Value(),
		BlockedNanos:    int64(s.m.blockedNs.Value()),
		SealedPending:   len(v.sealed),
		Merges:          s.m.merges.Value(),
		MergeTotalNanos: int64(s.m.mergeNs.Value()),
		MergeLastNanos:  int64(s.m.lastMerge.Value()),

		Views:            s.views.Len(),
		ViewPanesLive:    s.views.PanesLive(),
		ViewPanesEvicted: s.m.cviewPanesEvicted.Value(),
		ViewUpdates:      s.m.cviewUpdates.Value(),
		ViewReads:        s.m.cviewReads.Value(),
	}
	if ing > v.watermark {
		st.Staleness = ing - v.watermark
	}
	if v.base != nil {
		st.Generation = v.base.seq
		st.Groups = v.base.groups
	}
	if s.dur != nil {
		st.Durable = true
		st.ReadOnly = s.dur.degraded.Load()
		st.WALAppends = s.m.walAppends.Value()
		st.WALFsyncs = s.m.walSyncs.Value()
		st.WALSegmentRotations = s.m.walRotations.Value()
		if s.dur.log != nil {
			st.WALSizeBytes = s.dur.log.SizeBytes()
		}
		st.Checkpoints = s.m.ckpts.Value()
		st.CheckpointWatermark = s.dur.lastCkptWM.Load()
	}
	return st
}
