package agg

import (
	"sync"
	"time"

	"memagg/internal/obs"
)

// Engine phase instrumentation. Every Q1 execution, and every query of
// Hash_PLAT, Hash_RX and Hash_GLB, records its build / merge / iterate
// split into a per-engine histogram family in obs.Default, using the
// paper's Section 3 phase conventions:
//
//   - build:   folding records into the backing structure (upsert loop,
//     sort, or radix scatter + partition builds);
//   - merge:   combining per-worker state where the design has any
//     (Hash_PLAT's partition-parallel merge; zero elsewhere — Hash_RX's
//     partitions are disjoint by construction and need no merge);
//   - iterate: reading the result out (table scan, run scan, or
//     partition concatenation).
//
// Each engine marks its boundaries on a phaseClock. VectorCount runs the
// engine's Q1 body with a clock that only records; CountPhases runs the
// same body with a clock that also keeps its readings, so the split it
// returns is the split the histograms record.
//
// Recording costs two to four time.Now calls per *query* (not per row),
// which is noise next to any real aggregation; obs.SetDisabled removes
// even that.
var enginePhaseSeconds = obs.Default.NewHistogramVec(
	"memagg_engine_phase_seconds",
	"Aggregation engine phase durations (build/merge/iterate), per engine.",
	"engine", "phase",
)

// phaseSet caches one engine's three phase histograms so the per-query
// cost is a single sync.Map load (phasesFor) instead of three.
type phaseSet struct {
	build, merge, iterate *obs.Histogram
}

var phaseSets sync.Map // engine name -> *phaseSet

// phasesFor returns the phase histograms for the named engine, creating
// them on first use.
func phasesFor(engine string) *phaseSet {
	if ps, ok := phaseSets.Load(engine); ok {
		return ps.(*phaseSet)
	}
	ps := &phaseSet{
		build:   enginePhaseSeconds.With(engine, "build"),
		merge:   enginePhaseSeconds.With(engine, "merge"),
		iterate: enginePhaseSeconds.With(engine, "iterate"),
	}
	actual, _ := phaseSets.LoadOrStore(engine, ps)
	return actual.(*phaseSet)
}

// phaseClock marks the phase boundaries of one execution. The zero clock
// records into the engine's histograms and, under obs.SetDisabled, calls
// time.Now zero times (as obs.Start does). A clock with keep set times
// even when obs is disabled and sums each phase's readings, for
// CountPhases.
type phaseClock struct {
	keep bool
	ps   *phaseSet
	last time.Time // the last boundary; zero when the clock is not timing

	build, merge, iterate time.Duration
	// split reports that the execution marked an iterate boundary: a
	// fused execution (Hash_RX's serial fallback) marks only build.
	split bool
}

// start opens the build phase of the named engine's execution.
func (c *phaseClock) start(engine string) {
	c.ps = phasesFor(engine)
	if c.keep || !obs.Disabled() {
		c.last = time.Now()
	}
}

// tick closes the phase that ran since the last boundary, observes it into
// h and returns its duration.
func (c *phaseClock) tick(h *obs.Histogram) time.Duration {
	if c.last.IsZero() {
		return 0
	}
	now := time.Now()
	d := now.Sub(c.last)
	c.last = now
	h.Observe(d)
	return d
}

// The boundary marks do nothing on a nil clock: the table engine's query
// bodies run on one when their caller keeps no phase series for them.
func (c *phaseClock) built() {
	if c != nil {
		c.build += c.tick(c.ps.build)
	}
}

func (c *phaseClock) merged() {
	if c != nil {
		c.merge += c.tick(c.ps.merge)
	}
}

func (c *phaseClock) iterated() {
	if c != nil {
		c.iterate += c.tick(c.ps.iterate)
		c.split = true
	}
}

// q1Body is implemented by every engine of this package: its one Q1
// execution, marking phase boundaries on c. VectorCount and CountPhases
// both run it.
type q1Body interface {
	countQ1(keys []uint64, c *phaseClock) []GroupCount
}

// CountPhases executes Q1 exactly like e.VectorCount — the same body — but
// reports the build/iterate phase split of Section 3: the time folding
// records into the backing structure vs the time reading the result out
// (merge re-scans count as reading out). It exists for benchmark emitters
// (aggbench -json); query callers should use VectorCount. e must be one
// of this package's engines.
//
// The durations are the readings the engine's phase histograms record
// for this call. ok reports that the run marked an iterate boundary; it
// is false only when Hash_RX takes its serial fallback, which fuses both
// phases and reports the whole duration as build with a zero iterate.
func CountPhases(e Engine, keys []uint64) (rows []GroupCount, build, iterate time.Duration, ok bool) {
	c := phaseClock{keep: true}
	rows = e.(q1Body).countQ1(keys, &c)
	return rows, c.build, c.merge + c.iterate, c.split
}

// PhaseStat is one engine×phase row of the recorded phase metrics — the
// typed form behind memagg.Stats().
type PhaseStat struct {
	Engine string
	Phase  string
	// Count is the number of recorded executions of this phase;
	// TotalNanos their summed duration.
	Count      uint64
	TotalNanos int64
}

// PhaseStats returns every recorded engine×phase series, in first-use
// order. Phases that never ran (e.g. merge on a serial engine) report a
// zero Count. The slice is non-nil even before any engine has run.
func PhaseStats() []PhaseStat {
	out := []PhaseStat{}
	enginePhaseSeconds.Each(func(labels []string, h *obs.Histogram) {
		out = append(out, PhaseStat{
			Engine:     labels[0],
			Phase:      labels[1],
			Count:      h.Count(),
			TotalNanos: int64(h.SumNanos()),
		})
	})
	return out
}
