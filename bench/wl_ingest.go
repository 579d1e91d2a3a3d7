package main

import (
	"context"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"time"

	"memagg"
	"memagg/internal/dataset"
)

// ingestSpec is what distinguishes the two ingest workloads; README.md has
// the reasoning behind the numbers in main.go's workload table.
type ingestSpec struct {
	durable    bool
	rate       int // rows/s offered, open loop
	chunkRows  int // rows per POST
	poolChunks int // the pool is cycled; it only has to outlast the warm-up
}

const (
	ingestGroups  = 65536
	ingestWarmSec = 2 // warm-up length, at the measured rate
)

// ingestRun drives ingest_paced (volatile server) and ingest_durable (a
// server with a WAL and checkpoints).
type ingestRun struct {
	e *env
	ingestSpec

	pool    *pool
	srv     *server
	dataDir string
	next    int      // pool index of the next op
	sent    []uint64 // acknowledged sends per pool chunk, warm-up included
	acked   uint64   // rows acknowledged, warm-up included

	traced ingestTrace
}

// ingestTrace accumulates what the traced blocks of a run observed.
type ingestTrace struct {
	counters promSample // server counters' growth over the traced blocks
	service  []time.Duration
	late     []time.Duration
	samples  []memagg.StreamStats
	selfCPU  time.Duration
}

func newIngestRun(spec ingestSpec) func(*env) workloadRun {
	return func(e *env) workloadRun {
		return &ingestRun{e: e, ingestSpec: spec, traced: ingestTrace{counters: promSample{}}}
	}
}

func (r *ingestRun) ops() int { return r.rate * r.e.seconds / r.chunkRows }

func (r *ingestRun) serverArgs() []string {
	if !r.durable {
		return nil
	}
	// The flush policy is part of the workload: fsync amortised over the
	// default 100 ms interval, checkpoints at the default 1 Mi-row cadence.
	return []string{"-data-dir", r.dataDir, "-sync", "interval"}
}

func (r *ingestRun) setup() error {
	r.pool = newPool(dataset.RseqShf, r.poolChunks, r.chunkRows, ingestGroups, r.e.seed)
	r.sent = make([]uint64, len(r.pool.bodies))
	if r.durable {
		dir, err := os.MkdirTemp(r.e.workDir, "data-")
		if err != nil {
			return err
		}
		r.dataDir = dir
	}
	srv, _, err := r.e.fleet.start(r.e.aggserve, r.serverArgs()...)
	if err != nil {
		return err
	}
	r.srv = srv
	// Warm-up repetition, discarded: a couple of seconds at the measured
	// rate grow the base generation to every group and the server's heap to
	// its steady size.
	w := runPaced(context.Background(), srv, srv.client, r.pool, 0, r.rate*ingestWarmSec/r.chunkRows, r.rate)
	if w.failed > 0 {
		return fmt.Errorf("warm-up: %d of %d ingests failed", w.failed, len(w.sent))
	}
	r.account(w)
	_, err = srv.settle()
	return err
}

// account books a paced run's acknowledged chunks into the oracle state.
// (A failed op may or may not have been applied; the run is already failed
// then, so the oracle only has to be right for clean runs.)
func (r *ingestRun) account(p pacedRun) {
	for _, idx := range p.sent {
		r.sent[idx]++
	}
	r.acked += uint64((len(p.sent) - p.failed) * r.chunkRows)
	r.next = (r.next + len(p.sent)) % len(r.pool.bodies)
}

func (r *ingestRun) measure(n int, traced bool) (phase, error) {
	var (
		before promSample
		poll   *statsPoller
		err    error
	)
	if traced {
		if before, err = r.srv.scrape(); err != nil {
			return phase{}, err
		}
		poll = startStatsPoller(r.srv)
	}
	cpu0, err := r.srv.cpu()
	if err != nil {
		return phase{}, err
	}
	self0 := selfCPU()
	run := runPaced(context.Background(), r.srv, r.srv.client, r.pool, r.next, n, r.rate)
	r.account(run)
	// CPU is counted through the settled point: merges the measured rows
	// caused but that finished after the last acknowledgment still count.
	_, err = r.srv.settle()
	if traced {
		r.traced.samples = append(r.traced.samples, poll.stop()...)
	}
	if err != nil {
		return phase{}, err
	}
	cpu1, err := r.srv.cpu()
	if err != nil {
		return phase{}, err
	}
	self1 := selfCPU()
	if !r.srv.alive() {
		return phase{}, fmt.Errorf("aggserve died during the measured phase\n%s", r.srv.log.String())
	}
	if err := run.checkPacing(); err != nil {
		return phase{}, err
	}
	if traced {
		after, err := r.srv.scrape()
		if err != nil {
			return phase{}, err
		}
		t := &r.traced
		run.spans(r.e.tr, len(t.service)+1)
		t.counters.add(after.since(before))
		t.service = append(t.service, run.service...)
		t.late = append(t.late, run.late...)
		t.selfCPU += self1 - self0
	}
	return phase{
		rows:      uint64((len(run.sent) - run.failed) * r.chunkRows),
		wall:      run.wall,
		cpu:       cpu1 - cpu0,
		lat:       run.lat,
		attempted: len(run.sent),
		failed:    run.failed,
	}, nil
}

func (r *ingestRun) verify() (checks, failed int, err error) {
	n, err := r.srv.count()
	if err != nil {
		return 0, 0, err
	}
	if n != r.acked {
		r.e.logf("q4 = %d, acknowledged %d rows", n, r.acked)
		failed++
	}
	want := newTally(r.pool.groups)
	for i, c := range r.pool.chunks {
		want.add(c, r.sent[i])
	}
	got, err := r.srv.countByKeyChecksum()
	if err != nil {
		return 0, 0, err
	}
	if got != want.checksum() {
		r.e.logf("q1 checksum %+v, oracle %+v", got, want.checksum())
		failed++
	}
	return 2, failed, nil
}

// layers attributes the traced blocks (ph is their sum) to layers: the
// growth of the server's own counters, the client-side record, and then the
// one-off diagnostics — the closed-loop saturation burst and the in-process
// replays of this workload's inputs through each layer's public functions.
func (r *ingestRun) layers(ph phase) error {
	l, t := r.e.layer, r.traced
	rows := float64(ph.rows)

	l["aggserve.ingest_p50_ms"] = ms(percentile(t.service, 50))
	l["aggserve.ingest_server_ms"] = 1e3 * t.counters.histMean("memagg_http_request_seconds", `{route="/ingest"}`)
	l["aggserve.http_tax_ms"] = l["aggserve.ingest_p50_ms"] - l["aggserve.ingest_server_ms"]
	streamLayers(l, t.counters, rows, t.samples)
	if r.durable {
		l["wal.append_bytes_per_row"] = t.counters["memagg_wal_append_bytes_total"] / rows
		l["wal.fsyncs"] = t.counters["memagg_wal_fsyncs_total"]
		l["wal.fsync_ms_mean"] = 1e3 * t.counters.histMean("memagg_wal_fsync_seconds", "")
		l["wal.checkpoints"] = t.counters["memagg_wal_checkpoints_total"]
		l["wal.checkpoint_ms_mean"] = 1e3 * t.counters.histMean("memagg_wal_checkpoint_seconds", "")
		l["wal.disk_bytes_per_row"] = float64(dirBytes(r.dataDir)) / float64(r.acked)
	}
	l["driver.late_p50_ms"] = ms(percentile(t.late, 50))
	l["driver.late_max_ms"] = ms(percentile(t.late, 100))
	l["driver.cpu_share"] = t.selfCPU.Seconds() / (t.selfCPU + ph.cpu).Seconds()

	// Peak RSS of the paced phases, read before the burst can raise it.
	rss, err := r.srv.peakRSSMB()
	if err != nil {
		return err
	}
	l["process.peak_rss_mb"] = rss
	start := time.Now()
	for _, body := range r.pool.bodies {
		if err := r.srv.ingest(r.srv.client, body); err != nil {
			return fmt.Errorf("saturation burst: %w", err)
		}
	}
	if _, err := r.srv.settle(); err != nil {
		return err
	}
	l["process.ingest_burst_rows_per_s"] = float64(r.pool.rows()) / time.Since(start).Seconds()
	return replayIngestLayers(r.e, r.pool)
}

// streamLayers fills the counter-derived stream.* metrics shared by the
// server workloads from the counters' growth d over rows ingested rows.
func streamLayers(l map[string]float64, d promSample, rows float64, samples []memagg.StreamStats) {
	l["stream.seals"] = d["memagg_stream_seals_total"]
	l["stream.merges"] = d["memagg_stream_merges_total"]
	l["stream.merge_ns_per_row"] = d["memagg_stream_merge_nanos_total"] / rows
	l["stream.append_blocked_ns_per_row"] = d["memagg_stream_append_blocked_nanos_total"] / rows
	var stale []float64
	for _, st := range samples {
		l["stream.sealed_pending_max"] = max(l["stream.sealed_pending_max"], float64(st.SealedPending))
		stale = append(stale, float64(st.Staleness))
	}
	l["stream.staleness_rows_p50"] = medianFloat(stale)
}

func (r *ingestRun) teardown() {
	if r.srv != nil {
		r.srv.kill()
		r.srv = nil
	}
	if r.dataDir != "" {
		_ = os.RemoveAll(r.dataDir) // the whole work dir goes at exit anyway
	}
}

// dirBytes sums the sizes of the regular files under dir (du -sb).
func dirBytes(dir string) int64 {
	var total int64
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil // files vanish under a live server (WAL truncation)
		}
		if info, err := d.Info(); err == nil {
			total += info.Size()
		}
		return nil
	})
	return total
}

// statsPoller samples /v1/stats on a connection of its own while a traced
// block runs (sealed backlog and staleness are gauges: only polling sees
// their course).
type statsPoller struct {
	cancel  context.CancelFunc
	wg      sync.WaitGroup
	samples []memagg.StreamStats
}

const statsPollEvery = 50 * time.Millisecond

func startStatsPoller(srv *server) *statsPoller {
	ctx, cancel := context.WithCancel(context.Background())
	p := &statsPoller{cancel: cancel}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		side := srv.via(newClient())
		defer side.client.CloseIdleConnections()
		tick := time.NewTicker(statsPollEvery)
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
				if st, err := side.stats(); err == nil {
					p.samples = append(p.samples, st)
				}
			}
		}
	}()
	return p
}

// stop ends the polling and returns the samples in time order.
func (p *statsPoller) stop() []memagg.StreamStats {
	p.cancel()
	p.wg.Wait()
	return p.samples
}
