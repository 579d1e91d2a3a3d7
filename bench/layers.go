package main

import (
	"fmt"
	"path/filepath"
	"time"

	"memagg"
	"memagg/internal/wal"
	"memagg/internal/wal/checkpoint"
)

// In-process layer replays: the traced run feeds a workload's own generated
// inputs through each layer's public functions and records a span around
// every call. They run after the measured phases, with the server gone, so
// they never share the machine with a measurement.

// serverStreamOptions mirrors how cmd/aggserve configures its stream, so
// an in-process replay exercises the same shape the server does.
func serverStreamOptions() memagg.StreamOptions {
	return memagg.StreamOptions{
		Workload: memagg.Workload{Output: memagg.Vector, Multithreaded: true},
	}
}

// replayIngestLayers times the ingest path's layers over the pool: chunk
// encode and decode (agg), then append, flush and the three snapshot
// temperatures (stream).
func replayIngestLayers(e *env, p *pool) error {
	l, tr := e.layer, e.tr
	rows := float64(p.rows())
	root := tr.begin("replay.ingest", 0, 0)
	defer tr.end(root)

	scratch := make([]byte, 0, memagg.ChunkWireSize(p.chunkRows))
	enc := tr.timed("agg.AppendChunkWire", root, 0, func() {
		for _, c := range p.chunks {
			scratch = memagg.AppendChunkWire(scratch[:0], c)
		}
	})
	l["agg.chunk_encode_ns_per_row"] = float64(enc.Nanoseconds()) / rows

	decoded := make([]memagg.Chunk, len(p.bodies))
	var err error
	dec := tr.timed("agg.DecodeChunkWire", root, 0, func() {
		for i, b := range p.bodies {
			if decoded[i], _, err = memagg.DecodeChunkWire(b); err != nil {
				return
			}
		}
	})
	if err != nil {
		return fmt.Errorf("decode of a body this driver encoded: %w", err)
	}
	l["agg.chunk_decode_ns_per_row"] = float64(dec.Nanoseconds()) / rows

	// The background merger is off and MergeNow compacts instead, so that
	// what the three snapshots below see does not depend on a race.
	opts := serverStreamOptions()
	opts.DisableMerger = true
	s := memagg.NewStream(opts)
	defer s.Close()
	// Ownership transfer, as the server does with the columns it decoded.
	// All but the last chunk per shard go in and are compacted first, so the
	// snapshots see what a server under paced load does: a merged base
	// with one freshly sealed delta per shard on top.
	tail := len(decoded) - s.Stats().Shards
	feed := func(chunks []memagg.Chunk) time.Duration {
		return tr.timed("stream.AppendOwnedChunk", root, 0, func() {
			for _, c := range chunks {
				if err = s.AppendOwnedChunk(c); err != nil {
					return
				}
			}
		})
	}
	app := feed(decoded[:tail])
	if err != nil {
		return err
	}
	if err := s.Flush(); err != nil {
		return err
	}
	for s.MergeNow() {
	}
	app += feed(decoded[tail:])
	if err != nil {
		return err
	}
	l["stream.append_ns_per_row"] = float64(app.Nanoseconds()) / rows
	l["stream.flush_ms"] = ms(tr.timed("stream.Flush", root, 0, func() { err = s.Flush() }))
	if err != nil {
		return err
	}

	// Cold: the first query of the freshly sealed view folds its deltas and
	// scans. Warm: a new snapshot of the same view. Cached: the same
	// snapshot again.
	var sn *memagg.StreamSnapshot
	l["stream.snapshot_q1_cold_ms"] = ms(tr.timed("stream.Snapshot.CountByKey/cold", root, 0, func() {
		sn = s.Snapshot()
		sn.CountByKey()
	}))
	l["stream.snapshot_q1_warm_ms"] = ms(tr.timed("stream.Snapshot.CountByKey/warm", root, 0, func() {
		sn = s.Snapshot()
		sn.CountByKey()
	}))
	cached := tr.timed("stream.Snapshot.CountByKey/cached", root, 0, func() { sn.CountByKey() })
	l["stream.snapshot_q1_cached_us"] = float64(cached.Nanoseconds()) / 1e3
	return nil
}

// replayViewLayers times cview's read path: a private stream with the
// dashboard's two views absorbs the live pool, then each view is read cold.
func replayViewLayers(e *env, live *pool) error {
	tr := e.tr
	root := tr.begin("replay.views", 0, 0)
	defer tr.end(root)
	s := memagg.NewStream(serverStreamOptions())
	defer s.Close()
	for _, v := range dashViews {
		if err := s.RegisterView(v); err != nil {
			return err
		}
	}
	for _, c := range live.chunks {
		if err := s.AppendChunk(c); err != nil {
			return err
		}
	}
	if err := s.Flush(); err != nil {
		return err
	}
	var total time.Duration
	for _, v := range dashViews {
		var err error
		total += tr.timed("cview.Result/"+v.Name, root, 0, func() { _, err = s.View(v.Name) })
		if err != nil {
			return err
		}
	}
	e.layer["cview.result_ms"] = ms(total) / float64(len(dashViews))
	return nil
}

// replayRecoveryLayers splits a restart into its layers over private copies
// of the template directory: checkpoint.Load, wal.Open with a counting
// callback, and the whole memagg.OpenStream (stream.Open underneath), whose
// self time is what the first two do not explain.
func replayRecoveryLayers(e *env, template string) error {
	l, tr := e.layer, e.tr
	root := tr.begin("replay.recovery", 0, 0)
	defer tr.end(root)

	dir := filepath.Join(e.workDir, "replay")
	if err := copyDir(template, dir); err != nil {
		return err
	}
	var (
		meta *checkpoint.Meta
		err  error
	)
	load := tr.timed("checkpoint.Load", root, 0, func() {
		meta, _, err = checkpoint.Load(wal.OSFS{}, filepath.Join(dir, "checkpoint"))
	})
	if err != nil {
		return err
	}
	if meta == nil {
		return fmt.Errorf("template holds no checkpoint")
	}
	l["wal.checkpoint_load_ms"] = ms(load)

	var (
		replayed uint64
		log      *wal.Log
	)
	replay := tr.timed("wal.Open", root, 0, func() {
		log, err = wal.Open(filepath.Join(dir, "wal"), wal.Options{SkipBelow: meta.Watermark},
			func(r wal.Record) error {
				if r.EndWatermark > meta.Watermark {
					replayed += uint64(r.Rows())
				}
				return nil
			})
	})
	if err != nil {
		return err
	}
	if err := log.Close(); err != nil {
		return err
	}
	if replayed == 0 {
		return fmt.Errorf("template's WAL replays no rows past the checkpoint")
	}
	l["wal.replay_ns_per_row"] = float64(replay.Nanoseconds()) / float64(replayed)

	// wal.Open repairs and reopens the log in place; give OpenStream a
	// pristine copy.
	if err := copyDir(template, dir); err != nil {
		return err
	}
	opts := serverStreamOptions()
	opts.Durability = memagg.StreamDurability{Dir: dir, SyncPolicy: "none", CheckpointEvery: recoverNoCheckpoint}
	var s *memagg.Stream
	open := tr.timed("stream.Open", root, 0, func() { s, err = memagg.OpenStream(opts) })
	if err != nil {
		return err
	}
	defer s.Close()
	l["stream.open_self_ms"] = ms(open - load - replay)
	return nil
}
