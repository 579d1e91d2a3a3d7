// Command bench is the repository's benchmark: five fixed-work workloads
// over a real cmd/aggserve child process (and the memagg library in-process
// for the paper grid), each reporting the same four end-to-end metrics, with
// a separate traced run that attributes time to layers from outside the
// program. README.md in this directory is the specification.
//
//	bash bench/run.sh --workload ingest_paced --seed 1 --seconds 10 --trace 0
//	bash bench/run.sh -selfcheck
//
// BENCHMARK.json at the repository root names run.sh as the command; the
// script builds this package into .bench_build/ and runs it.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// setupRepeats is how many times a run performs the whole set-up; setup_s
// is the median. The last set-up is the one measured against.
const setupRepeats = 3

// traceBlocks is how many blocks a traced run cuts the measured operations
// into; they alternate untraced, traced, untraced, ...
const traceBlocks = 8

// workloadRun is one workload's state for one run. The orchestrator calls
// setup (setupRepeats times, each on a fresh value), measure (once, or once
// per block in a traced run), verify, layers (traced run only), teardown.
type workloadRun interface {
	// ops is the number of measured operations --seconds asks for.
	ops() int
	// setup builds everything the measured phase needs: inputs, pre-encoded
	// bodies, the child process, preload, and the discarded warm-up.
	setup() error
	// measure runs n operations and returns their raw outcome.
	measure(n int, traced bool) (phase, error)
	// verify checks the final state against the oracle.
	verify() (checks, failed int, err error)
	// layers fills env.layer from what the traced blocks accumulated (ph is
	// their sum) and runs the traced run's one-off diagnostics.
	layers(ph phase) error
	// teardown stops children and removes files; safe after a failed setup.
	teardown()
}

type workload struct {
	name, why string
	server    bool // drives an aggserve child
	new       func(*env) workloadRun
}

var workloads = []workload{
	{"batch_paper", "the paper's grid in-process: engines do all the work and HTTP, stream, WAL and views none", false, newBatchRun},
	{"ingest_paced", "open-loop chunk ingest into a volatile server: decode, absorb, seal and merge do the work", true, newIngestRun(ingestSpec{rate: 2_000_000, chunkRows: 32768, poolChunks: 128})},
	{"ingest_durable", "open-loop chunk ingest with WAL and checkpoints on, at a rate this sandbox's disk sustains: WAL append, fsync and checkpoint writes are the extra work", true, newIngestRun(ingestSpec{durable: true, rate: 250_000, chunkRows: 8192, poolChunks: 128})},
	{"dash_refresh", "eight dashboard reads beside a moving watermark: fold, scan, result cache, pane merge and JSON encode do the work", true, newDashRun},
	{"recover_replay", "restart on a fixed on-disk state: checkpoint load and WAL replay, the read side of the durability layer", true, newRecoverRun},
}

// env is what one run shares with its workload.
type env struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool

	root     string // checkout root (holds go.mod of module memagg)
	outDir   string // bench/out: trace files
	workDir  string // bench/out/run-<pid>: data dirs, removed on every exit path
	aggserve string // built server binary
	buildS   float64
	fleet    fleet // the run's aggserve children

	tr    *tracer            // nil in an untraced run
	layer map[string]float64 // per-layer values, traced run only
}

func (e *env) logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench %s: "+format+"\n", append([]any{e.workload}, args...)...)
}

func main() {
	var (
		name       = flag.String("workload", "", "workload to run (see -list)")
		seed       = flag.Uint64("seed", 1, "input seed: the same seed gives the same inputs")
		seconds    = flag.Int("seconds", 10, "length of the measured phase the fixed work is sized for")
		trace      = flag.Int("trace", 0, "1 = traced run: print per-layer metrics instead of end-to-end")
		root       = flag.String("root", "", "checkout root (default: found from the working directory)")
		list       = flag.Bool("list", false, "list the workloads and exit")
		selfcheck  = flag.Bool("selfcheck", false, "run two sets of five runs per workload and compare them against the bounds")
		trajectory = flag.String("trajectory", "", "write a trajectory point (one untraced and one traced run of every workload) to this file")
	)
	flag.Parse()
	if *list {
		for _, w := range workloads {
			fmt.Printf("%-16s %s\n", w.name, w.why)
		}
		return
	}
	if err := run(*name, *seed, *seconds, *trace != 0, *root, *selfcheck, *trajectory); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds int, trace bool, root string, selfcheck bool, trajectory string) error {
	if seconds < 1 || seconds > 60 {
		return fmt.Errorf("-seconds %d out of range 1..60", seconds)
	}
	root, err := findRoot(root)
	if err != nil {
		return err
	}
	switch {
	case selfcheck:
		return selfCheck(root, seed, seconds)
	case trajectory != "":
		return writeTrajectory(root, trajectory, seed, seconds)
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == name {
			w = &workloads[i]
		}
	}
	if w == nil {
		return fmt.Errorf("unknown workload %q (try -list)", name)
	}

	e := &env{workload: name, seed: seed, seconds: seconds, trace: trace, root: root,
		outDir: filepath.Join(root, "bench", "out")}
	e.workDir = filepath.Join(e.outDir, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(e.workDir, 0o755); err != nil {
		return err
	}
	// Every exit path — return, error, signal — kills the children and
	// removes the work dir, so back-to-back runs never share state.
	cleanup := func() {
		e.fleet.killAll()
		_ = os.RemoveAll(e.workDir)
	}
	defer cleanup()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		cleanup()
		os.Exit(1)
	}()

	if w.server {
		bin, took, err := buildAggserve(root)
		if err != nil {
			return err
		}
		e.aggserve, e.buildS = bin, took.Seconds()
	}
	if trace {
		e.tr, e.layer = newTracer(), map[string]float64{"driver.build_s": e.buildS}
	}
	res, defs, err := runWorkload(e, w)
	if err != nil {
		return err
	}
	if err := e.tr.write(e.outDir, name); err != nil {
		return err
	}
	return res.print(os.Stdout, defs)
}

// runWorkload performs one run: repeated set-up, the measured phase,
// verification, and in a traced run the per-layer collection.
func runWorkload(e *env, w *workload) (result, []metricDef, error) {
	var (
		r      workloadRun
		setups []float64
	)
	defer func() {
		if r != nil {
			r.teardown()
		}
	}()
	for i := 0; i < setupRepeats; i++ {
		if r != nil {
			r.teardown()
		}
		r = w.new(e)
		start := time.Now()
		if err := r.setup(); err != nil {
			return result{}, nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	n := r.ops()
	if !e.trace {
		ph, err := r.measure(n, false)
		if err != nil {
			return result{}, nil, err
		}
		checks, failed, err := r.verify()
		if err != nil {
			return result{}, nil, err
		}
		vals := ph.endToEndValues()
		vals["setup_s"] = medianFloat(setups)
		return newResult(endToEnd, vals, ph.attempted+checks, ph.failed+failed), endToEnd, nil
	}

	// Traced run: the operations are cut into blocks that alternate
	// untraced and traced on the same process and server, so the machine's
	// drift hits both kinds alike; the difference in op_p50_ms between them
	// is the tracing overhead, and the per-layer numbers come from the
	// traced blocks. End-to-end numbers are never taken from here.
	var plain, traced phase
	blocks := min(traceBlocks, n)
	for b := 0; b < blocks; b++ {
		size := n / blocks
		if b < n%blocks {
			size++
		}
		ph, err := r.measure(size, b%2 == 1)
		if err != nil {
			return result{}, nil, err
		}
		if b%2 == 1 {
			traced.add(ph)
		} else {
			plain.add(ph)
		}
	}
	checks, failed, err := r.verify()
	if err != nil {
		return result{}, nil, err
	}
	if err := r.layers(traced); err != nil {
		return result{}, nil, err
	}
	l := e.layer
	p50 := percentile(plain.lat, 50)
	l["driver.trace_overhead_pct"] = 100 * (percentile(traced.lat, 50) - p50).Seconds() / p50.Seconds()
	if p, ok := highestSupported(len(traced.lat)); ok {
		l["driver.op_hi_pct"] = p
		l["driver.op_hi_ms"] = ms(percentile(traced.lat, p))
	}
	l["driver.op_samples"] = float64(len(traced.lat))
	defs := perLayer()
	return newResult(defs, l, plain.attempted+traced.attempted+checks, plain.failed+traced.failed+failed), defs, nil
}

// findRoot locates the checkout root: the directory whose go.mod declares
// module memagg, searched upwards from dir (default: the working directory).
func findRoot(dir string) (string, error) {
	if dir == "" {
		wd, err := os.Getwd()
		if err != nil {
			return "", err
		}
		dir = wd
	}
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for d := dir; ; d = filepath.Dir(d) {
		if b, err := os.ReadFile(filepath.Join(d, "go.mod")); err == nil {
			if first, _, _ := strings.Cut(string(b), "\n"); strings.TrimSpace(first) == "module memagg" {
				return d, nil
			}
		}
		if d == filepath.Dir(d) {
			return "", errors.New("no go.mod of module memagg at or above " + dir + ": run from a checkout of the repository")
		}
	}
}
