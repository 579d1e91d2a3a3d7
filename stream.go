package memagg

import (
	"errors"

	"memagg/internal/agg"
	"memagg/internal/cluster"
	"memagg/internal/obs"
	"memagg/internal/stream"
	"memagg/internal/wal"
)

// StreamOptions configures a Stream. The zero value is usable: it serves
// distributive and algebraic queries with one shard per CPU.
//
// Workload reuses Recommend's workload model to size the stream instead of
// the batch backend choice: Function == Holistic retains value multisets,
// Multithreaded toggles sharded ingest, and EstimatedGroups sizes the
// merge fan-out so each base partition stays cache-sized. Explicit fields
// override what Workload derives. GOMAXPROCS bounds the merge and query
// worker pools.
type StreamOptions struct {
	// Workload describes the queries this stream will serve; see Recommend.
	Workload Workload

	// Shards is the number of writer shards. <= 0 derives it from the
	// workload: GOMAXPROCS when Workload.Multithreaded, otherwise 1.
	Shards int

	// SealRows is the delta size that triggers publication to the queryable
	// view. Smaller values lower snapshot staleness. <= 0 means 32768.
	SealRows int

	// Holistic retains every group's value multiset, enabling
	// MedianByKey/QuantileByKey/ModeByKey on snapshots. Also implied by
	// Workload.Function == Holistic.
	Holistic bool

	// DisableMerger turns background compaction off: sealed deltas stay in
	// the queryable view (snapshot queries fold them partition-wise, once
	// per view) until an explicit MergeNow. For read replicas that want
	// exact control over when fold work happens; not valid with
	// durability, whose checkpoints ride on merge cycles.
	DisableMerger bool

	// Durability enables the write-ahead log and checkpoints. A durable
	// stream must be built with OpenStream (there may be state on disk to
	// recover); NewStream panics when Durability.Dir is set.
	Durability StreamDurability
}

// StreamDurability configures a stream's durability layer. The zero value
// (empty Dir) disables it.
type StreamDurability struct {
	// Dir is the durability root: the WAL lives under Dir/wal, checkpoints
	// under Dir/checkpoint. Empty disables durability.
	Dir string

	// SyncPolicy is the WAL fsync discipline: "none" (page cache decides),
	// "interval" (amortized, the default), or "always" (every seal durable
	// on acknowledgment).
	SyncPolicy string

	// CheckpointEvery is the checkpoint cadence in rows (how far the base
	// generation may outgrow the last checkpoint before a new one is
	// written). 0 means 1<<20 rows; negative disables checkpoints (WAL-only
	// durability).
	CheckpointEvery int
}

// streamMergeBits sizes the base generation's radix fan-out from the
// expected group count, applying the measured Hash_GLB/Hash_RX crossover
// (`-exp glb`, results_glb.txt): below rxCardinalityCutoff (~64Ki groups)
// the merged table is cache-resident whole and cardinality-driven
// partitioning buys nothing — the same result that routes batch queries
// to Hash_GLB there — so bits 0 defers to the stream's default fan-out
// (sized for merge parallelism, not cache). At and above the crossover
// it targets ~4Ki groups per partition, the cache-sized-table discipline
// Hash_RX uses. The stream clamps to the partitioner's maximum.
func streamMergeBits(estimatedGroups int) int {
	if estimatedGroups < rxCardinalityCutoff {
		return 0
	}
	bits := 0
	for g := estimatedGroups; g > 4096; g >>= 1 {
		bits++
	}
	return bits
}

// Stream is a live streaming aggregation: rows appended in batches become
// visible to Snapshot queries once sealed, while a background merger folds
// sealed state into an immutable, radix-partitioned base generation.
// AppendChunk is safe for concurrent producers; Snapshot and Stats are safe
// from any goroutine. See internal/stream for the full design.
type Stream struct {
	s      *stream.Stream
	advice Advice
}

// NewStream starts a volatile streaming aggregation sized by opts. It
// panics if opts enable durability: recovering on-disk state can fail, so
// durable streams go through OpenStream, which returns an error.
func NewStream(opts StreamOptions) *Stream {
	if opts.Durability.Dir != "" {
		panic("memagg: StreamOptions enable durability; use OpenStream, not NewStream")
	}
	s, err := OpenStream(opts)
	if err != nil {
		// Unreachable: only the durability path can fail.
		panic(err)
	}
	return s
}

// OpenStream starts a streaming aggregation sized by opts, recovering
// durable state first when opts.Durability.Dir is set: the latest
// checkpoint loads as the base generation and the WAL suffix past its
// watermark replays, so the stream resumes at exactly the watermark the
// previous process made durable. A torn or corrupt WAL tail is truncated
// (longest valid prefix); a corrupt checkpoint fails with an error
// wrapping ErrWALCorrupt.
func OpenStream(opts StreamOptions) (*Stream, error) {
	holistic := opts.Holistic || opts.Workload.Function == Holistic
	shards := opts.Shards
	if shards <= 0 && !opts.Workload.Multithreaded {
		shards = 1
	}
	cfg := stream.Config{
		Shards:          shards, // <= 0 (multithreaded workload): GOMAXPROCS
		SealRows:        opts.SealRows,
		MergeBits:       streamMergeBits(opts.Workload.EstimatedGroups),
		EstimatedGroups: opts.Workload.EstimatedGroups,
		Holistic:        holistic,
		DisableMerger:   opts.DisableMerger,
	}
	if d := opts.Durability; d.Dir != "" {
		if opts.DisableMerger {
			return nil, errors.New("memagg: DisableMerger is not valid with durability (checkpoints ride on merge cycles)")
		}
		policy, err := wal.ParseSyncPolicy(d.SyncPolicy)
		if err != nil {
			return nil, err
		}
		cfg.Durability = stream.Durability{
			Dir:             d.Dir,
			SyncPolicy:      policy,
			CheckpointEvery: d.CheckpointEvery,
		}
	}
	s, err := stream.Open(cfg)
	if err != nil {
		return nil, err
	}
	return &Stream{s: s, advice: Recommend(opts.Workload)}, nil
}

// ReadOnly reports whether the stream's durability layer failed and ingest
// is refused (AppendChunk/Flush return errors wrapping ErrDurability); queries
// keep serving. Always false for volatile streams.
func (s *Stream) ReadOnly() bool { return s.s.ReadOnly() }

// Advice reports what Recommend selects for this stream's workload — the
// batch backend the paper's experiments favour for the same queries,
// useful when deciding between streaming and batch execution.
func (s *Stream) Advice() Advice { return s.advice }

// Ready reports whether the stream is fit to serve cluster traffic: open
// and not degraded to read-only. It backs readiness probes (/readyz) —
// distinct from liveness, which a closed-but-queryable stream still
// passes.
func (s *Stream) Ready() bool { return !s.s.Closed() && !s.s.ReadOnly() }

// AppendChunk ingests one columnar chunk: c.Vals[i] belongs to
// c.Keys[i], and a short value column zero-extends. The columns are
// copied (into pooled scratch, so a steady producer allocates nothing);
// the caller may reuse them. AppendChunk blocks when the receiving
// shard's queue is full (backpressure, not loss) and returns ErrClosed
// after Close. Rows become visible to snapshots once their delta seals;
// call Flush for an immediate visibility barrier.
func (s *Stream) AppendChunk(c Chunk) error { return s.s.AppendChunk(c, false) }

// AppendOwnedChunk is AppendChunk in ownership-transfer mode: the
// chunk's slices pass to the stream without copying, are folded straight
// into a shard's delta table, and are then recycled through the stream's
// ingest buffer pool. The caller must not touch either column again
// after a successful call, and the columns must not share backing memory
// with anything the caller keeps (ReadChunk's outputs qualify — the
// servers feed decoded wire chunks through this path).
func (s *Stream) AppendOwnedChunk(c Chunk) error { return s.s.AppendChunk(c, true) }

// Flush makes every row this caller appended before the call visible to
// subsequent snapshots.
func (s *Stream) Flush() error { return s.s.Flush() }

// MergeNow synchronously folds every currently sealed delta into the base
// generation — explicit compaction, chiefly for DisableMerger streams.
// Returns false when there was nothing to merge.
func (s *Stream) MergeNow() bool { return s.s.MergeNow() }

// Close seals all remaining rows, folds everything into a final base
// generation, and stops the background goroutines. The stream remains
// queryable after Close. Close is idempotent — a second call returns
// ErrClosed — and safe to call concurrently with AppendChunk and Flush
// (in-flight calls complete first; late callers get ErrClosed).
func (s *Stream) Close() error { return s.s.Close() }

// Snapshot pins the current queryable state — every row sealed so far,
// exactly Watermark() of them — without blocking writers or the merger.
func (s *Stream) Snapshot() *StreamSnapshot { return &StreamSnapshot{sn: s.s.Snapshot()} }

// StreamStats is a point-in-time report of a stream's ingest, merge,
// view and durability state, read from the same obs-backed
// instruments the stream's /metrics families serve. Its JSON encoding is
// the /v1/stats body cmd/aggserve serves.
type StreamStats = stream.Stats

// Stats reports the stream's current state. Safe from any goroutine.
func (s *Stream) Stats() StreamStats { return s.s.Stats() }

// StreamSnapshot answers the full Q1–Q7 query set over one consistent
// point of the stream: every query sees exactly Watermark() rows, no
// matter how long the snapshot is held or what writers do meanwhile.
// Vector row order is unspecified except CountRange (ascending by key).
type StreamSnapshot struct {
	sn *stream.Snapshot
}

// Watermark returns the number of rows this snapshot covers.
func (sn *StreamSnapshot) Watermark() uint64 { return sn.sn.Watermark() }

// Groups returns the number of distinct keys this snapshot covers.
func (sn *StreamSnapshot) Groups() int { return sn.sn.Groups() }

// EncodePartials appends this snapshot's full partial-aggregate set in
// the cluster wire format (internal/cluster) to dst and returns the
// extended slice — what a worker node serves on GET /partials for the
// router's scatter-gather. The set decodes to state Merge-equivalent to
// the snapshot, value multisets included on holistic streams. It fails
// only on a group whose value multiset is too large for one wire frame.
func (sn *StreamSnapshot) EncodePartials(dst []byte) ([]byte, error) {
	return cluster.EncodeSnapshot(dst, sn.sn)
}

// Run executes one parsed query (see agg.ParseQuery for the vocabulary)
// and returns its result: []GroupCount (q1, q7), []GroupValue (q2, q3,
// quantile, mode), []GroupStat (sum/min/max), uint64 (q4) or float64
// (q5, q6). It is the untyped form of the methods below, for callers that
// dispatch on a query name (cmd/aggserve); both go through the same
// kernels. A holistic query on a distributive stream is
// ErrUnsupportedQuery.
func (sn *StreamSnapshot) Run(q agg.Query) (any, error) { return sn.sn.Run(q) }

// CountByKey executes Q1: one (key, COUNT(*)) row per distinct key.
func (sn *StreamSnapshot) CountByKey() []GroupCount { return sn.sn.CountByKey() }

// AvgByKey executes Q2: one (key, AVG(values)) row per distinct key.
func (sn *StreamSnapshot) AvgByKey() []GroupValue { return sn.sn.AvgByKey() }

// MedianByKey executes Q3 (holistic): one (key, MEDIAN(values)) row per
// distinct key. Requires a holistic stream (StreamOptions.Holistic or a
// holistic workload); otherwise ErrUnsupportedQuery.
func (sn *StreamSnapshot) MedianByKey() ([]GroupValue, error) { return sn.sn.MedianByKey() }

// QuantileByKey returns one (key, q-quantile of values) row per distinct
// key by the nearest-rank method. Holistic streams only.
func (sn *StreamSnapshot) QuantileByKey(q float64) ([]GroupValue, error) {
	return sn.sn.QuantileByKey(q)
}

// ModeByKey returns one (key, most frequent value) row per distinct key.
// Holistic streams only.
func (sn *StreamSnapshot) ModeByKey() ([]GroupValue, error) { return sn.sn.ModeByKey() }

// Count executes Q4: COUNT(*) over the snapshot — its watermark.
func (sn *StreamSnapshot) Count() uint64 { return sn.sn.Count() }

// Avg executes Q5: AVG over the value column.
func (sn *StreamSnapshot) Avg() float64 { return sn.sn.Avg() }

// Median executes Q6: MEDIAN over the key column. Always supported — the
// snapshot's per-group counts stand in for the ordered enumeration the
// batch hash backends lack.
func (sn *StreamSnapshot) Median() (float64, error) { return sn.sn.Median() }

// CountRange executes Q7: Q1 restricted to lo <= key <= hi, rows
// ascending by key.
func (sn *StreamSnapshot) CountRange(lo, hi uint64) ([]GroupCount, error) {
	return sn.sn.CountRange(lo, hi)
}

// SumByKey returns one (key, SUM(values)) row per distinct key.
func (sn *StreamSnapshot) SumByKey() []GroupStat { return sn.sn.Reduce(agg.OpSum) }

// MinByKey returns one (key, MIN(values)) row per distinct key.
func (sn *StreamSnapshot) MinByKey() []GroupStat { return sn.sn.Reduce(agg.OpMin) }

// MaxByKey returns one (key, MAX(values)) row per distinct key.
func (sn *StreamSnapshot) MaxByKey() []GroupStat { return sn.sn.Reduce(agg.OpMax) }

// MetricsRegistry exposes the stream's metric registry for embedding in a
// metrics endpoint: serve it alongside the process-global registry with
// obs.WritePrometheus (see cmd/aggserve). Typed access goes through
// Metrics and Stats instead.
func (s *Stream) MetricsRegistry() *obs.Registry { return s.s.Registry() }
