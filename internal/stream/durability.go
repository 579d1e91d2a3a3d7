package stream

import (
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"memagg/internal/agg"
	"memagg/internal/cview"
	"memagg/internal/wal"
	"memagg/internal/wal/checkpoint"
)

// ErrDurability marks errors caused by the durability layer failing: once
// the WAL cannot be written the stream degrades to read-only serving, and
// every subsequent AppendChunk/Flush returns an error wrapping this sentinel
// (with the underlying fault attached). Snapshots and Stats keep working.
var ErrDurability = errors.New("stream: durability degraded, serving read-only")

// Durability configures the stream's write-ahead log and checkpoints. The
// zero value (empty Dir) disables durability entirely.
type Durability struct {
	// Dir is the durability root. The stream keeps the WAL under Dir/wal
	// and checkpoints under Dir/checkpoint. Empty disables durability.
	Dir string

	// FS is the filesystem the log and checkpoints write through; nil means
	// the OS filesystem. Tests inject wal.MemFS / wal.ErrFS here.
	FS wal.FS

	// SyncPolicy is the WAL fsync discipline (none | interval | always).
	SyncPolicy wal.SyncPolicy

	// CheckpointEvery is the checkpoint cadence in rows: a checkpoint is
	// taken when the base generation has grown this many rows past the last
	// one. 0 means 1<<20 rows; negative disables checkpointing entirely
	// (WAL-only durability — recovery replays the whole log).
	CheckpointEvery int

	// segmentBytes is the WAL segment rotation size; <= 0 means the wal
	// package default (16 MiB). Test-only: tests shrink it to force
	// rotations.
	segmentBytes int
}

// Enabled reports whether the config asks for durability.
func (d Durability) Enabled() bool { return d.Dir != "" }

const defaultCheckpointEvery = 1 << 20

// durable is a Stream's durability state: the open log, the checkpointer,
// and the degradation latch.
type durable struct {
	fs        wal.FS
	log       *wal.Log
	ckptDir   string
	ckptEvery uint64 // 0 = checkpointing disabled

	ckWake chan struct{}
	ckWG   sync.WaitGroup

	lastCkptWM atomic.Uint64 // watermark of the last durable checkpoint
	ckptSeq    atomic.Uint64

	// degraded latches on the first WAL failure: the on-disk tail may be
	// torn, so no further appends are attempted and ingest is refused.
	degraded atomic.Bool
	causeMu  sync.Mutex
	cause    error
}

func (d *durable) degrade(err error) {
	d.causeMu.Lock()
	if d.cause == nil {
		d.cause = err
	}
	d.causeMu.Unlock()
	d.degraded.Store(true)
}

// degradedErr returns the AppendChunk/Flush error for a degraded stream.
func (d *durable) degradedErr() error {
	d.causeMu.Lock()
	cause := d.cause
	d.causeMu.Unlock()
	if cause == nil {
		return ErrDurability
	}
	return fmt.Errorf("%w: %w", ErrDurability, cause)
}

// ReadOnly reports whether the durability layer has failed and the stream
// refuses ingest (it keeps serving snapshots).
func (s *Stream) ReadOnly() bool {
	return s.dur != nil && s.dur.degraded.Load()
}

// Open starts a stream like New and, when cfg.Durability is enabled,
// recovers existing state first: the latest durable checkpoint is loaded
// as the base generation, the WAL suffix past its watermark is folded
// into that base's partitions (the stream boots with no sealed backlog),
// and the log is left open for the write-ahead path.
// A corrupt WAL tail is truncated (longest-valid-prefix recovery); a
// corrupt checkpoint is an error wrapping wal.ErrWALCorrupt — it never
// silently drops acknowledged rows.
func Open(cfg Config) (*Stream, error) {
	cfg = cfg.withDefaults()
	if !cfg.Durability.Enabled() {
		s := newStream(cfg)
		s.start()
		return s, nil
	}
	dcfg := cfg.Durability
	fs := dcfg.FS
	if fs == nil {
		fs = wal.OSFS{}
	}
	start := time.Now()

	ckptDir := filepath.Join(dcfg.Dir, "checkpoint")
	meta, parts, err := checkpoint.Load(fs, ckptDir)
	if err != nil {
		return nil, fmt.Errorf("stream: load checkpoint: %w", err)
	}
	var (
		base   *generation
		ckptWM uint64
	)
	if meta != nil {
		if meta.Holistic != cfg.Holistic {
			return nil, fmt.Errorf("stream: checkpoint holistic=%v, config holistic=%v: state mismatch",
				meta.Holistic, cfg.Holistic)
		}
		// The checkpoint's radix fan-out is baked into its partition runs;
		// the recovered stream adopts it so partition indexes keep lining up.
		cfg.MergeBits = meta.Bits
		base = ownedGeneration(parts, meta.Watermark, meta.Seq)
		ckptWM = meta.Watermark
	}

	s := newStream(cfg)
	every := uint64(defaultCheckpointEvery)
	switch {
	case dcfg.CheckpointEvery > 0:
		every = uint64(dcfg.CheckpointEvery)
	case dcfg.CheckpointEvery < 0:
		every = 0
	}
	s.dur = &durable{fs: fs, ckptDir: ckptDir, ckptEvery: every, ckWake: make(chan struct{}, 1)}
	s.dur.lastCkptWM.Store(ckptWM)
	if meta != nil {
		s.dur.ckptSeq.Store(meta.Seq)
	}

	// Continuous views come back in two layers: the definitions file
	// re-registers every view at its original start watermark (with any
	// snapshotted panes), then WAL replay below folds the log suffix through
	// the same per-seal hook live ingest uses — panes the snapshot already
	// covers are skipped by the views' own watermark barriers.
	saved, err := cview.Load(fs, s.cviewDir(), cfg.paneBits())
	if err != nil {
		return nil, fmt.Errorf("stream: load continuous views: %w", err)
	}
	for _, sv := range saved {
		if err := s.views.Restore(sv); err != nil {
			return nil, fmt.Errorf("stream: restore continuous view %q: %w", sv.Spec.Name, err)
		}
	}

	// Replay the WAL suffix straight into the base generation's radix
	// partitions: each record is scattered into a run at MergeBits and
	// folded like a merge (agg.Fold at GOMAXPROCS), and since the recovered
	// tables are not shared with anyone until the first install, it folds
	// in place — recovery costs O(groups) memory and leaves no sealed
	// backlog for the merger. The same run is the delta a continuous view
	// folds when it still needs that seal. Records at or below the
	// checkpoint watermark are already in the base and are read only for
	// such views; SkipBelow prunes whole segments when no view needs their
	// records either.
	skipBelow := ckptWM
	if wm, need := s.views.ReplayFloor(); need && wm < skipBelow {
		skipBelow = wm
	}
	workers := runtime.GOMAXPROCS(0)
	replay := func(r wal.Record) error {
		end := r.EndWatermark
		rows := uint64(len(r.Keys))
		view := s.views.Active() && s.views.NeedSeal(end)
		if !view && end <= ckptWM {
			return nil
		}
		run := agg.Source{Rows: agg.ScatterRows([][]uint64{r.Keys}, [][]uint64{r.Vals}, cfg.MergeBits, workers)}
		if view {
			s.views.OnSeal(end-rows, end, rows, run)
		}
		if end > ckptWM {
			if base == nil {
				base = ownedGeneration(make([]agg.Table, 1<<cfg.MergeBits), 0, 1)
			}
			base.parts, _ = agg.Fold(base.parts, []agg.Source{run}, base.owned, cfg.Holistic, workers)
			base.rows += rows
		}
		return nil
	}
	log, err := wal.Open(filepath.Join(dcfg.Dir, "wal"), wal.Options{
		FS:           fs,
		SyncPolicy:   dcfg.SyncPolicy,
		SegmentBytes: dcfg.segmentBytes,
		SkipBelow:    skipBelow,
		Metrics:      s.m.walMetrics(),
	}, replay)
	if err != nil {
		return nil, err
	}
	// A checkpoint ahead of the recovered log means a crash lost the WAL's
	// unsynced tail (possible under sync=none/interval) while the fsync'd
	// checkpoint survived. The stream adopts the checkpoint watermark, so
	// the log must restart from the same baseline: appending past the gap
	// would trip the next recovery's continuity check and truncate rows
	// acknowledged after this boot.
	if ckptWM > log.LastWatermark() {
		if err := log.ResetBaseline(ckptWM); err != nil {
			_ = log.Close()
			return nil, fmt.Errorf("stream: align WAL to checkpoint watermark: %w", err)
		}
	}
	s.dur.log = log

	var wm uint64
	if base != nil {
		base.groups = agg.Groups(base.parts)
		wm = base.rows
	}
	s.view.Store(&view{base: base, watermark: wm})

	s.start()
	// A long replay can leave the base a whole cadence past the checkpoint:
	// ring the checkpointer exactly as a merge install would.
	if base != nil {
		s.maybeCheckpoint(base)
	}
	s.m.recoveryLat.Observe(time.Since(start))
	return s, nil
}

// logSeal is publish's write-ahead step, called under viewMu before the
// sealed delta becomes visible: the record carries the delta's raw rows and
// the watermark the install is about to publish, so WAL order is exactly
// seal-publication order and the watermark doubles as the log sequence
// number. All of the delta's batches commit as this one record — encoded
// straight from the batches' columns, one write, at most one fsync: the
// group-commit path. A failed append degrades the stream; the delta is
// still published (visible until the process exits, like every
// pre-durability row) but ingest stops accepting new rows.
func (s *Stream) logSeal(d *delta, endWM uint64) {
	// The record is the columns' last reader: drop them either way (a
	// volatile run delta's seal was).
	keys, vals := d.keys, d.vals
	d.keys, d.vals = nil, nil
	if s.dur == nil || s.dur.degraded.Load() {
		return
	}
	if err := s.dur.log.AppendSegments(endWM, keys, vals); err != nil {
		s.dur.degrade(err)
	}
}

// checkpointLoop runs checkpoints in the background, one per doorbell
// ring. It owns no ingest-path state: checkpointOnce pins an immutable
// view, so ingest, seals and merges proceed untouched while it writes.
func (s *Stream) checkpointLoop() {
	defer s.dur.ckWG.Done()
	for range s.dur.ckWake {
		s.checkpointOnce()
	}
}

// maybeCheckpoint rings the checkpointer when the base generation has
// outgrown the last checkpoint by the configured cadence. Called by the
// merger after each install.
func (s *Stream) maybeCheckpoint(g *generation) {
	d := s.dur
	if d == nil || d.ckptEvery == 0 {
		return
	}
	if g.rows-d.lastCkptWM.Load() < d.ckptEvery {
		return
	}
	select {
	case d.ckWake <- struct{}{}:
	default:
	}
}

// checkpointOnce serializes the current base generation as a checkpoint
// and truncates the WAL below its watermark. The base is pinned like a
// snapshot's (merges copy the partitions it shares instead of folding in
// place), so the whole write happens off the ingest path. Checkpoint
// failures do not degrade the stream — the WAL still covers every
// acknowledged row — but a degraded stream writes no checkpoints: its base
// may already contain rows the torn log tail never made durable, and
// checkpointing them would claim a watermark the log cannot back.
func (s *Stream) checkpointOnce() {
	d := s.dur
	if d.degraded.Load() {
		return
	}
	// Header fields are safe to read unpinned: a redundant ring returns
	// here without marking the base shared, so the next merge may still
	// fold it in place. The base may have moved on by the time the pin
	// lands, so the check runs again on the pinned one.
	if base := s.view.Load().base; base == nil || base.rows <= d.lastCkptWM.Load() {
		return
	}
	base := s.pin().base
	if base == nil || base.rows <= d.lastCkptWM.Load() {
		return
	}
	start := time.Now()
	meta := checkpoint.Meta{
		Seq:       d.ckptSeq.Add(1),
		Watermark: base.rows,
		Bits:      s.cfg.MergeBits,
		Holistic:  s.cfg.Holistic,
	}
	w, err := checkpoint.NewWriter(d.fs, d.ckptDir, meta)
	if err != nil {
		return
	}
	for q, tb := range base.parts {
		if err := w.WritePartition(q, tb); err != nil {
			w.Abort()
			return
		}
	}
	if err := w.Commit(); err != nil {
		w.Abort()
		return
	}
	d.lastCkptWM.Store(base.rows)
	s.m.ckpts.Inc()
	s.m.ckptLat.Observe(time.Since(start))
	// Snapshot continuous-view pane state before dropping any log segments:
	// the truncated records are the only other source those panes could
	// rebuild from.
	s.saveViewPanes()
	// Sealed segments fully below the checkpoint are now redundant.
	_ = d.log.TruncateBelow(base.rows)
}

// closeDurability finishes the durability layer during Close: stop the
// checkpointer, take a final checkpoint (the merger has already folded
// everything into the base, so a reopen loads it and replays nothing), and
// close the log. A degraded or checkpoint-disabled stream skips the final
// checkpoint.
func (s *Stream) closeDurability() {
	d := s.dur
	if d == nil {
		return
	}
	close(d.ckWake)
	d.ckWG.Wait()
	if d.ckptEvery != 0 {
		s.checkpointOnce()
	}
	if !d.degraded.Load() {
		s.saveViewPanes()
	}
	_ = d.log.Close()
}

// walMetrics assembles the wal.Metrics view over the stream's registry
// instruments.
func (m *metrics) walMetrics() *wal.Metrics {
	return &wal.Metrics{
		Appends:      m.walAppends,
		AppendBytes:  m.walAppendBytes,
		Syncs:        m.walSyncs,
		Rotations:    m.walRotations,
		SegsDropped:  m.walSegsDropped,
		ReplayedRows: m.walReplayedRows,
		SyncLat:      m.walSyncLat,
		AppendLat:    m.walAppendLat,
	}
}
