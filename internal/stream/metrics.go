package stream

import (
	"memagg/internal/cview"
	"memagg/internal/obs"
)

// metrics is one Stream's instrument set, backed by a private obs.Registry
// so independent streams (tests, multiple embedded servers) never share a
// counter. Serve it next to the process-global registry with
// obs.WritePrometheus(w, obs.Default, s.Registry()).
//
// The counters double as the stream's load-bearing bookkeeping — the
// watermark/staleness arithmetic and Stats read them — so they record
// unconditionally; only the latency histograms honour obs.SetDisabled
// (that split is what the ingest overhead guard measures).
type metrics struct {
	reg *obs.Registry

	rows      *obs.Counter // rows accepted by AppendChunk
	batches   *obs.Counter // AppendChunk calls that carried rows
	blockedNs *obs.Counter // nanoseconds AppendChunk spent blocked on full queues
	seals     *obs.Counter // deltas frozen and published
	merges    *obs.Counter // merge cycles completed
	mergeNs   *obs.Counter // total merge-cycle nanoseconds
	snapshots *obs.Counter // snapshots taken
	lastMerge *obs.Gauge   // duration of the most recent merge cycle (ns)

	appendLat *obs.Histogram // AppendChunk call latency
	mergeLat  *obs.Histogram // merge cycle duration

	// Query-path instruments: the per-view result cache's outcome counters
	// and the three phases a snapshot query decomposes into — fold (sealed
	// deltas into per-partition sources, once per view), scan (the
	// partition-parallel kernel walk), and merge (the serial tail: scalar
	// partial merges, ordered sorts).
	qcacheHits   *obs.Counter
	qcacheMisses *obs.Counter
	qcacheEvicts *obs.Counter

	queryFoldLat  *obs.Histogram
	queryScanLat  *obs.Histogram
	queryMergeLat *obs.Histogram

	// Durability instruments. Registered unconditionally (a volatile stream
	// just leaves them at zero) so the scrape shape is stable; the wal
	// package records into them via the Metrics view walMetrics builds.
	walAppends      *obs.Counter // WAL records appended (one per seal)
	walAppendBytes  *obs.Counter // framed WAL bytes appended
	walSyncs        *obs.Counter // WAL fsyncs
	walRotations    *obs.Counter // WAL segment rotations
	walSegsDropped  *obs.Counter // WAL segments dropped by checkpoint truncation
	walReplayedRows *obs.Counter // rows replayed from the WAL at Open
	ckpts           *obs.Counter // checkpoints committed

	walSyncLat   *obs.Histogram // WAL fsync latency
	walAppendLat *obs.Histogram // WAL append latency (one record per seal)
	ckptLat      *obs.Histogram // checkpoint write+commit duration
	recoveryLat  *obs.Histogram // Open recovery duration (load + replay)

	// Continuous-view instruments (internal/cview), all recording through
	// the cview.Metrics view cviewMetrics builds; the update histogram
	// times each pane settle (a batch of deferred per-seal folds).
	cviewUpdates      *obs.Counter
	cviewPanesOpened  *obs.Counter
	cviewPanesEvicted *obs.Counter
	cviewReads        *obs.Counter
	cviewReadsCached  *obs.Counter
	cviewUpdateLat    *obs.Histogram
}

func newMetrics(s *Stream) *metrics {
	reg := obs.NewRegistry()
	m := &metrics{
		reg: reg,
		rows: reg.NewCounter("memagg_stream_rows_total",
			"Rows accepted by Append."),
		batches: reg.NewCounter("memagg_stream_batches_total",
			"Append calls that carried rows."),
		blockedNs: reg.NewCounter("memagg_stream_append_blocked_nanos_total",
			"Nanoseconds Append spent blocked on full shard queues (backpressure)."),
		seals: reg.NewCounter("memagg_stream_seals_total",
			"Delta seals: frozen shard tables published into the queryable view."),
		merges: reg.NewCounter("memagg_stream_merges_total",
			"Merge cycles folding sealed deltas into a base generation."),
		mergeNs: reg.NewCounter("memagg_stream_merge_nanos_total",
			"Total merge-cycle duration in nanoseconds."),
		snapshots: reg.NewCounter("memagg_stream_snapshots_total",
			"Snapshots taken."),
		lastMerge: reg.NewGauge("memagg_stream_merge_last_nanos",
			"Duration of the most recent merge cycle in nanoseconds."),
		appendLat: reg.NewHistogram("memagg_stream_append_seconds",
			"Append call latency (copy, hand-off, and any backpressure wait)."),
		mergeLat: reg.NewHistogram("memagg_stream_merge_seconds",
			"Merge cycle duration (delta flatten, scatter, partition folds)."),
		qcacheHits: reg.NewCounter("memagg_stream_query_cache_hits_total",
			"Snapshot queries answered from a view's result cache."),
		qcacheMisses: reg.NewCounter("memagg_stream_query_cache_misses_total",
			"Snapshot queries that computed and populated a view's result cache."),
		qcacheEvicts: reg.NewCounter("memagg_stream_query_cache_evictions_total",
			"Result-cache entries evicted by the per-view capacity bound."),
		queryFoldLat: reg.NewHistogram("memagg_stream_query_fold_seconds",
			"Partition-wise fold of sealed deltas into a view's query sources (once per view)."),
		queryScanLat: reg.NewHistogram("memagg_stream_query_scan_seconds",
			"Partition scan phase of a snapshot query kernel."),
		queryMergeLat: reg.NewHistogram("memagg_stream_query_merge_seconds",
			"Serial tail of a snapshot query: scalar partial merges and ordered sorts."),
		walAppends: reg.NewCounter("memagg_wal_appends_total",
			"WAL records appended (one group-committed record per seal)."),
		walAppendBytes: reg.NewCounter("memagg_wal_append_bytes_total",
			"Framed bytes appended to the WAL."),
		walSyncs: reg.NewCounter("memagg_wal_fsyncs_total",
			"WAL fsync calls."),
		walRotations: reg.NewCounter("memagg_wal_segment_rotations_total",
			"WAL segment rotations."),
		walSegsDropped: reg.NewCounter("memagg_wal_segments_dropped_total",
			"WAL segments dropped after a checkpoint made their rows durable."),
		walReplayedRows: reg.NewCounter("memagg_wal_replayed_rows_total",
			"Rows replayed from the WAL during recovery."),
		ckpts: reg.NewCounter("memagg_wal_checkpoints_total",
			"Checkpoints committed (CURRENT swapped)."),
		walSyncLat: reg.NewHistogram("memagg_wal_fsync_seconds",
			"WAL fsync latency."),
		walAppendLat: reg.NewHistogram("memagg_wal_append_seconds",
			"WAL append latency: record encode, write, any segment rotation and fsync."),
		ckptLat: reg.NewHistogram("memagg_wal_checkpoint_seconds",
			"Checkpoint duration (partition runs, META, CURRENT swap)."),
		recoveryLat: reg.NewHistogram("memagg_wal_recovery_seconds",
			"Recovery duration at Open (checkpoint load plus WAL replay)."),
		cviewUpdates: reg.NewCounter("memagg_cview_updates_total",
			"Continuous-view pane folds applied (one per registered view per seal)."),
		cviewPanesOpened: reg.NewCounter("memagg_cview_panes_opened_total",
			"Continuous-view panes opened."),
		cviewPanesEvicted: reg.NewCounter("memagg_cview_panes_evicted_total",
			"Continuous-view panes evicted by window retention."),
		cviewReads: reg.NewCounter("memagg_cview_reads_total",
			"Continuous-view result reads."),
		cviewReadsCached: reg.NewCounter("memagg_cview_reads_cached_total",
			"Continuous-view reads answered from the version cache (view unchanged)."),
		cviewUpdateLat: reg.NewHistogram("memagg_cview_update_seconds",
			"Continuous-view pane settle latency (one batch of deferred per-seal folds)."),
	}
	// View-derived state is served as scrape-time gauges rather than
	// double-maintained counters: the view pointer already is the truth.
	reg.NewGaugeFunc("memagg_stream_watermark_rows",
		"Rows visible to a snapshot taken now.", func() int64 {
			return int64(s.view.Load().watermark)
		})
	reg.NewGaugeFunc("memagg_stream_staleness_rows",
		"Rows ingested but not yet visible (queued or in unsealed deltas).",
		func() int64 {
			ing, wm := m.rows.Value(), s.view.Load().watermark
			if ing > wm {
				return int64(ing - wm)
			}
			return 0
		})
	reg.NewGaugeFunc("memagg_stream_sealed_pending",
		"Sealed deltas awaiting merge.", func() int64 {
			return int64(len(s.view.Load().sealed))
		})
	reg.NewGaugeFunc("memagg_stream_generation",
		"Sequence number of the current base generation.", func() int64 {
			if v := s.view.Load(); v.base != nil {
				return int64(v.base.seq)
			}
			return 0
		})
	reg.NewGaugeFunc("memagg_stream_groups",
		"Groups in the current base generation (unmerged deltas excluded).",
		func() int64 {
			if v := s.view.Load(); v.base != nil {
				return int64(v.base.groups)
			}
			return 0
		})
	reg.NewGaugeFunc("memagg_stream_readonly",
		"1 when the durability layer failed and the stream refuses ingest.",
		func() int64 {
			if s.dur != nil && s.dur.degraded.Load() {
				return 1
			}
			return 0
		})
	reg.NewGaugeFunc("memagg_wal_checkpoint_watermark_rows",
		"Rows covered by the last durable checkpoint.", func() int64 {
			if s.dur != nil {
				return int64(s.dur.lastCkptWM.Load())
			}
			return 0
		})
	// The view registry is attached right after newMetrics returns, so the
	// gauge closures nil-check it (a scrape can only race the constructor,
	// never observe a stream without it afterwards).
	reg.NewGaugeFunc("memagg_cview_views",
		"Registered continuous views.", func() int64 {
			if s.views == nil {
				return 0
			}
			return int64(s.views.Len())
		})
	reg.NewGaugeFunc("memagg_cview_panes_live",
		"Live panes across all continuous views.", func() int64 {
			if s.views == nil {
				return 0
			}
			return int64(s.views.PanesLive())
		})
	reg.NewGaugeFunc("memagg_cview_staleness_rows",
		"Rows ingested but not yet absorbed by the most lagging continuous view.",
		func() int64 {
			if s.views == nil || !s.views.Active() {
				return 0
			}
			return int64(s.views.Staleness(m.rows.Value()))
		})
	return m
}

// cviewMetrics assembles the cview.Metrics view over the stream's
// registry instruments.
func (m *metrics) cviewMetrics() *cview.Metrics {
	return &cview.Metrics{
		Updates:      m.cviewUpdates,
		PanesOpened:  m.cviewPanesOpened,
		PanesEvicted: m.cviewPanesEvicted,
		Reads:        m.cviewReads,
		ReadsCached:  m.cviewReadsCached,
		UpdateLat:    m.cviewUpdateLat,
	}
}

// Registry exposes the stream's private metric registry for serving.
func (s *Stream) Registry() *obs.Registry { return s.m.reg }

// AppendLatency returns the AppendChunk latency histogram's current
// state.
func (s *Stream) AppendLatency() obs.HistogramSnapshot { return s.m.appendLat.Snapshot() }

// MergeLatency returns the merge-cycle duration histogram's current state.
func (s *Stream) MergeLatency() obs.HistogramSnapshot { return s.m.mergeLat.Snapshot() }
