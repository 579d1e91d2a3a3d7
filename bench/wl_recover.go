package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"memagg/internal/dataset"
)

// recover_replay constants; README.md has the reasoning.
const (
	recoverGroups     = 65536
	recoverChunkRows  = 16384
	recoverCkptChunks = 16 // phase A, 262,144 rows: ends up in the checkpoint
	recoverWALChunks  = 40 // phase B, 655,360 rows: in the WAL only, replayed by every restart
	recoverPerSecond  = 5  // measured restarts per --seconds
	// recoverNoCheckpoint is a checkpoint cadence no run reaches, so the
	// checkpoint stays where phase A's graceful close put it and every
	// restart replays exactly phase B.
	recoverNoCheckpoint = 1 << 30
	// loadRate paces loads whose speed is not measured (template build,
	// dash_refresh's preload): fast, yet below the closed-loop ceiling, so
	// the sealed backlog stays small.
	loadRate = 4_000_000
)

// recoverRun drives recover_replay: every op restarts aggserve on a fresh
// copy of one deterministic on-disk state and times exec to first 200.
type recoverRun struct {
	e *env

	pool     *pool
	template string
	wantRows uint64

	restarts int // ops so far, warm-up included

	// Traced blocks: the server's own recovery time per restart, the last
	// restart's peak RSS, this driver's CPU.
	recoveryS     []float64
	lastRSSMB     float64
	tracedSelfCPU time.Duration
}

func newRecoverRun(e *env) workloadRun { return &recoverRun{e: e} }

func (r *recoverRun) ops() int { return recoverPerSecond * r.e.seconds }

// restartArgs are the flags every server on (a copy of) the template but
// phase A's runs with.
func restartArgs(dir string) []string {
	return []string{"-data-dir", dir, "-sync", "none", "-checkpoint-every", strconv.Itoa(recoverNoCheckpoint)}
}

func (r *recoverRun) setup() error {
	r.pool = newPool(dataset.RseqShf, recoverCkptChunks+recoverWALChunks, recoverChunkRows, recoverGroups, r.e.seed)
	r.wantRows = uint64(r.pool.rows())
	dir, err := os.MkdirTemp(r.e.workDir, "template-")
	if err != nil {
		return err
	}
	r.template = dir

	// Phase A: ingest, settle, SIGTERM. The graceful close writes a
	// checkpoint at exactly the phase's last row.
	a, _, err := r.e.fleet.start(r.e.aggserve, "-data-dir", dir, "-sync", "none")
	if err != nil {
		return err
	}
	if err := r.load(a, 0, recoverCkptChunks); err != nil {
		a.kill()
		return fmt.Errorf("template phase A: %w", err)
	}
	a.terminate()

	// Phase B: no checkpoint can trigger; flush, SIGKILL — these rows live
	// in the WAL only.
	b, _, err := r.e.fleet.start(r.e.aggserve, restartArgs(dir)...)
	if err != nil {
		return err
	}
	defer b.kill()
	if err := r.load(b, recoverCkptChunks, recoverWALChunks); err != nil {
		return fmt.Errorf("template phase B: %w", err)
	}
	b.kill()

	// Warm-up repetition, discarded.
	ok, _, _, err := r.restart(false)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("warm-up restart recovered a wrong state")
	}
	return nil
}

// load ingests n chunks starting at pool index first, after checking the
// server starts exactly where the previous phase ended, and settles.
func (r *recoverRun) load(srv *server, first, n int) error {
	st, err := srv.stats()
	if err != nil {
		return err
	}
	if want := uint64(first) * recoverChunkRows; st.Watermark != want || st.CheckpointWatermark != want {
		return fmt.Errorf("starts at watermark %d with checkpoint at %d, want both %d", st.Watermark, st.CheckpointWatermark, want)
	}
	w := runPaced(context.Background(), srv, srv.client, r.pool, first, n, loadRate)
	if w.failed > 0 {
		return fmt.Errorf("%d of %d ingests failed", w.failed, len(w.sent))
	}
	_, err = srv.settle()
	return err
}

// boot copies the template and starts aggserve on the copy; ready is exec
// to first 200 from /v1/stats. The caller kills the server and removes dir.
func (r *recoverRun) boot() (srv *server, dir string, ready time.Duration, err error) {
	dir = filepath.Join(r.e.workDir, "restart")
	if err := copyDir(r.template, dir); err != nil {
		return nil, dir, 0, err
	}
	srv, ready, err = r.e.fleet.start(r.e.aggserve, restartArgs(dir)...)
	return srv, dir, ready, err
}

// restart is one op. The copy is the driver's work, not the server's, and
// is left out of the op's latency; so are the checks after the first 200.
func (r *recoverRun) restart(traced bool) (ok bool, ready, cpu time.Duration, err error) {
	r.restarts++
	op := r.e.tr.begin("restart", 0, r.restarts)
	defer r.e.tr.end(op)
	sp := r.e.tr.begin("copy template, exec aggserve, first 200", op, r.restarts)
	srv, dir, ready, err := r.boot()
	r.e.tr.end(sp)
	defer os.RemoveAll(dir)
	if err != nil {
		return false, 0, 0, err
	}
	defer srv.kill()
	if cpu, err = srv.cpu(); err != nil {
		return false, 0, 0, err
	}

	ok = true
	st, err := srv.stats()
	if err != nil {
		return false, 0, 0, err
	}
	if st.Watermark != r.wantRows {
		r.e.logf("restart %d: recovered watermark %d, want %d", r.restarts, st.Watermark, r.wantRows)
		ok = false
	}
	n, err := srv.count()
	if err != nil {
		return false, 0, 0, err
	}
	if n != r.wantRows {
		r.e.logf("restart %d: q4 = %d, want %d", r.restarts, n, r.wantRows)
		ok = false
	}
	if traced {
		m, err := srv.scrape()
		if err != nil {
			return false, 0, 0, err
		}
		r.recoveryS = append(r.recoveryS, m["memagg_wal_recovery_seconds_sum"])
		if r.lastRSSMB, err = srv.peakRSSMB(); err != nil {
			return false, 0, 0, err
		}
	}
	return ok && ready <= opDeadline, ready, cpu, nil
}

func (r *recoverRun) measure(n int, traced bool) (phase, error) {
	ph := phase{lat: make([]time.Duration, 0, n)}
	self0 := selfCPU()
	for i := 0; i < n; i++ {
		ok, ready, cpu, err := r.restart(traced)
		if err != nil {
			return phase{}, err
		}
		ph.lat = append(ph.lat, ready)
		ph.wall += ready
		ph.cpu += cpu
		ph.attempted++
		if ok {
			ph.rows += r.wantRows
		} else {
			ph.failed++
		}
	}
	if traced {
		r.tracedSelfCPU += selfCPU() - self0
	}
	return ph, nil
}

// verify makes one more restart, off the clock, and compares the full q1
// result with the oracle over everything both phases acknowledged. (A q1
// straight after recovery folds the whole replayed backlog while the merger
// works on it too and takes seconds, so it is not part of every op.)
func (r *recoverRun) verify() (checks, failed int, err error) {
	srv, dir, _, err := r.boot()
	defer os.RemoveAll(dir)
	if err != nil {
		return 0, 0, err
	}
	defer srv.kill()
	if _, err := srv.settle(); err != nil {
		return 0, 0, err
	}
	want := newTally(r.pool.groups)
	for _, c := range r.pool.chunks {
		want.add(c, 1)
	}
	got, err := srv.countByKeyChecksum()
	if err != nil {
		return 0, 0, err
	}
	if got != want.checksum() {
		r.e.logf("q1 checksum after restart %+v, oracle %+v", got, want.checksum())
		failed++
	}
	return 1, failed, nil
}

// layers reports the traced restarts (ph is their sum), then splits a
// restart into its layers in-process.
func (r *recoverRun) layers(ph phase) error {
	l := r.e.layer
	l["wal.recovery_server_s"] = medianFloat(r.recoveryS)
	l["process.peak_rss_mb"] = r.lastRSSMB
	l["driver.cpu_share"] = r.tracedSelfCPU.Seconds() / (r.tracedSelfCPU + ph.cpu).Seconds()
	return replayRecoveryLayers(r.e, r.template)
}

func (r *recoverRun) teardown() {
	if r.template != "" {
		_ = os.RemoveAll(r.template) // the whole work dir goes at exit anyway
	}
}

// copyDir replaces dst with a deep copy of the regular files and
// directories under src.
func copyDir(src, dst string) error {
	if err := os.RemoveAll(dst); err != nil {
		return err
	}
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}
