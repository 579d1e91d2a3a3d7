// Package obs is the observability substrate: a zero-dependency metrics
// layer cheap enough to leave on in the aggregation hot paths. The paper's
// whole method is phase-level measurement — build vs merge vs iterate is
// what makes an aggregation design diagnosable — and this package turns
// those one-off harness measurements into permanently recorded metrics the
// serving layer (cmd/aggserve) can expose.
//
// Three primitives, all lock-free on the record path:
//
//   - Counter — a monotonically increasing atomic uint64. Counters are
//     always exact: they record even under SetDisabled, because load-bearing
//     state (rows ingested, merges completed) doubles as metrics and must
//     not drift when instrumentation is turned off. A counter add is one
//     atomic RMW — far below the noise floor of any aggregation query.
//
//   - Gauge — an atomic int64 point-in-time value, plus GaugeFunc for
//     values derived at scrape time (watermarks, group counts).
//
//   - Histogram — a fixed-bucket latency histogram: power-of-two buckets
//     over nanoseconds, each an atomic counter, so recording is a bucket
//     index (one bits.Len64) plus three atomic adds. No locks, no
//     allocation, no dynamic buckets.
//
// SetDisabled(true) gates the *timing* instruments — Start returns a zero
// Mark, so the time.Now calls and histogram observations disappear — while
// counters and gauges keep working. The overhead guard benchmark
// (internal/stream) compares enabled vs disabled ingest to prove the
// timing layer costs <2%.
//
// Metrics are grouped in a Registry (see registry.go) and served in
// Prometheus text exposition format (see prom.go).
package obs

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// disabled gates the timing instruments (Start/Mark/Histogram observation).
// Counters and gauges are unaffected: they are exact regardless.
var disabled atomic.Bool

// SetDisabled turns the timing instruments off (true) or back on (false).
// Intended for overhead measurement and for deployments that want the
// last fraction of a percent back; counters and gauges stay live either
// way.
func SetDisabled(v bool) { disabled.Store(v) }

// Disabled reports whether the timing instruments are off.
func Disabled() bool { return disabled.Load() }

// meta is the identity every metric shares: the Prometheus family name, a
// help line, and an optional fixed label pair list (label names zipped
// with values, e.g. ["engine", "Hash_LP", "phase", "build"]).
type meta struct {
	name   string
	help   string
	labels []string // alternating name, value
}

func (m *meta) Name() string { return m.name }

// Counter is a monotonically increasing value. The zero Counter is ready
// to use (construct through a Registry to serve it); recording into a nil
// *Counter is a no-op, as it is for a nil *Gauge and *Histogram, so an
// instrument set may leave any field unset.
type Counter struct {
	meta
	v atomic.Uint64
}

// Add increments the counter by n. Always records (see package comment).
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a point-in-time value.
type Gauge struct {
	meta
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add adjusts the gauge by d (negative to decrease).
func (g *Gauge) Add(d int64) {
	if g != nil {
		g.v.Add(d)
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// GaugeFunc is a gauge whose value is computed at scrape time — for state
// that already lives elsewhere (a stream's watermark, a table's group
// count) and should not be double-maintained.
type GaugeFunc struct {
	meta
	fn func() int64
}

// Value computes the current value.
func (g *GaugeFunc) Value() int64 { return g.fn() }

// Histogram bucket layout: power-of-two nanosecond buckets. Bucket i
// counts observations with value <= 2^(histMinShift+i) ns; the last
// bucket absorbs everything larger (encoded as +Inf). 2^8 ns = 256ns up
// through 2^33 ns ≈ 8.6s covers everything from a single batched append
// to a full-dataset merge.
const (
	histMinShift = 8
	histBuckets  = 26
)

// BucketBound returns bucket i's upper bound in nanoseconds, or -1 for
// the final overflow (+Inf) bucket.
func BucketBound(i int) int64 {
	if i >= histBuckets-1 {
		return -1
	}
	return 1 << (histMinShift + i)
}

// Histogram is a fixed-bucket histogram over nanosecond durations.
// Recording is lock-free: one bits.Len64 plus three atomic adds.
type Histogram struct {
	meta
	count   atomic.Uint64
	sum     atomic.Uint64 // nanoseconds
	buckets [histBuckets]atomic.Uint64
}

// bucketIndex maps a nanosecond value to its bucket.
func bucketIndex(ns uint64) int {
	if ns <= 1<<histMinShift {
		return 0
	}
	i := bits.Len64(ns-1) - histMinShift
	if i >= histBuckets {
		return histBuckets - 1
	}
	return i
}

// Observe records one duration. A no-op under SetDisabled — durations are
// timing instruments, unlike counters.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil || disabled.Load() {
		return
	}
	h.observe(d)
}

// observe records unconditionally: the internal path for callers that
// already checked (a zero Mark short-circuits earlier).
func (h *Histogram) observe(d time.Duration) {
	ns := uint64(d)
	if d < 0 {
		ns = 0
	}
	h.count.Add(1)
	h.sum.Add(ns)
	h.buckets[bucketIndex(ns)].Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// SumNanos returns the total observed nanoseconds.
func (h *Histogram) SumNanos() uint64 { return h.sum.Load() }

// HistogramSnapshot is a consistent-enough point-in-time copy of a
// histogram for typed stats APIs (counts are read bucket by bucket; exact
// cross-bucket consistency is not needed for monitoring).
type HistogramSnapshot struct {
	Count   uint64
	SumNano uint64
	// Buckets[i] is the non-cumulative count of observations with
	// duration <= BucketBound(i) nanoseconds (the last bucket is +Inf).
	Buckets [histBuckets]uint64
}

// Snapshot copies the histogram's current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	s.Count = h.count.Load()
	s.SumNano = h.sum.Load()
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}

// Mark is a phase-timing cursor: Start takes a timestamp (or nothing,
// when disabled), and Tick observes the elapsed phase into a histogram
// and returns a fresh Mark for the next phase. The whole chain compiles
// to zero time.Now calls when disabled:
//
//	m := obs.Start()
//	build(...)
//	m = m.Tick(phases.build)
//	emit(...)
//	m.Tick(phases.iterate)
type Mark struct {
	t time.Time
}

// Start begins a timing chain. Returns the zero Mark when disabled.
func Start() Mark {
	if disabled.Load() {
		return Mark{}
	}
	return Mark{t: time.Now()}
}

// Tick records the time since the mark into h (when the chain is live and
// h is non-nil) and returns a Mark for the next phase.
func (m Mark) Tick(h *Histogram) Mark {
	if m.t.IsZero() {
		return Mark{}
	}
	now := time.Now()
	if h != nil {
		h.observe(now.Sub(m.t))
	}
	return Mark{t: now}
}

// Live reports whether the chain is recording (Start ran with the timing
// instruments enabled).
func (m Mark) Live() bool { return !m.t.IsZero() }
