package obs

import (
	"strings"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("test_rows_total", "rows")
	g := r.NewGauge("test_depth", "depth")
	c.Add(3)
	c.Inc()
	g.Set(7)
	g.Add(-2)
	if c.Value() != 4 {
		t.Fatalf("counter = %d want 4", c.Value())
	}
	if g.Value() != 5 {
		t.Fatalf("gauge = %d want 5", g.Value())
	}
}

// TestNilInstrumentsNoop pins the contract instrument sets rely on: every
// recording method on a nil instrument does nothing instead of panicking.
func TestNilInstrumentsNoop(t *testing.T) {
	var (
		c *Counter
		g *Gauge
		h *Histogram
	)
	c.Add(3)
	c.Inc()
	g.Set(7)
	g.Add(-2)
	h.Observe(time.Millisecond)
	Start().Tick(h).Tick(nil)
}

func TestCountersRecordWhileDisabled(t *testing.T) {
	SetDisabled(true)
	defer SetDisabled(false)
	r := NewRegistry()
	c := r.NewCounter("test_total", "")
	c.Inc()
	if c.Value() != 1 {
		t.Fatal("counters must stay exact under SetDisabled")
	}
	h := r.NewHistogram("test_seconds", "")
	h.Observe(time.Millisecond)
	if h.Count() != 0 {
		t.Fatal("histograms must not record under SetDisabled")
	}
	if m := Start(); m.Live() {
		t.Fatal("Start must return a dead Mark under SetDisabled")
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("test_hist_seconds", "")
	h.Observe(100 * time.Nanosecond) // bucket 0 (<= 256ns)
	h.Observe(256 * time.Nanosecond) // bucket 0 (boundary inclusive)
	h.Observe(300 * time.Nanosecond) // bucket 1 (<= 512ns)
	h.Observe(time.Hour)             // overflow -> last bucket
	s := h.Snapshot()
	if s.Count != 4 {
		t.Fatalf("count = %d want 4", s.Count)
	}
	if s.Buckets[0] != 2 || s.Buckets[1] != 1 || s.Buckets[histBuckets-1] != 1 {
		t.Fatalf("bucket spread = %v", s.Buckets)
	}
	want := uint64(100 + 256 + 300 + time.Hour.Nanoseconds())
	if s.SumNano != want {
		t.Fatalf("sum = %d want %d", s.SumNano, want)
	}
}

func TestBucketIndexMonotonic(t *testing.T) {
	prev := 0
	for ns := uint64(1); ns < 1<<40; ns *= 3 {
		i := bucketIndex(ns)
		if i < prev {
			t.Fatalf("bucketIndex not monotonic at %d: %d < %d", ns, i, prev)
		}
		if b := BucketBound(i); b >= 0 && int64(ns) > b {
			t.Fatalf("value %d above its bucket bound %d", ns, b)
		}
		if i > 0 {
			if b := BucketBound(i - 1); int64(ns) <= b {
				t.Fatalf("value %d fits the previous bucket (bound %d)", ns, b)
			}
		}
		prev = i
	}
}

func TestMarkChain(t *testing.T) {
	r := NewRegistry()
	a := r.NewHistogram("test_a_seconds", "")
	b := r.NewHistogram("test_b_seconds", "")
	m := Start()
	if !m.Live() {
		t.Fatal("Start should be live when enabled")
	}
	m = m.Tick(a)
	m.Tick(b)
	if a.Count() != 1 || b.Count() != 1 {
		t.Fatalf("tick counts = %d, %d want 1, 1", a.Count(), b.Count())
	}
}

// TestPrometheusFormat checks the exposition output line by line: headers
// per family, cumulative buckets ending at +Inf == count, labelled
// series, and headers for still-empty vec families.
func TestPrometheusFormat(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("fmt_rows_total", "ingested rows")
	c.Add(42)
	h := r.NewHistogram("fmt_lat_seconds", "latency")
	h.Observe(time.Microsecond)
	h.Observe(time.Millisecond)
	cv := r.NewCounterVec("fmt_requests_total", "requests", "route", "code")
	cv.With("/query", "200").Add(2)
	r.NewHistogramVec("fmt_phase_seconds", "phases", "engine", "phase")
	r.NewGaugeFunc("fmt_depth", "live depth", func() int64 { return 9 })

	var sb strings.Builder
	WritePrometheus(&sb, r)
	out := sb.String()

	for _, want := range []string{
		"# HELP fmt_rows_total ingested rows\n# TYPE fmt_rows_total counter\nfmt_rows_total 42\n",
		"# TYPE fmt_lat_seconds histogram\n",
		"fmt_lat_seconds_count 2\n",
		`fmt_lat_seconds_bucket{le="+Inf"} 2`,
		`fmt_requests_total{route="/query",code="200"} 2`,
		// An empty vec still announces its family.
		"# TYPE fmt_phase_seconds histogram\n",
		"fmt_depth 9\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}

	// Buckets must be cumulative: the +Inf bucket equals _count.
	if !strings.Contains(out, `fmt_lat_seconds_bucket{le="1.6777216e-05"}`) &&
		!strings.Contains(out, `fmt_lat_seconds_bucket{le="1.024e-06"}`) {
		t.Errorf("expected power-of-two second bounds in:\n%s", out)
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("dup_total", "")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate metric name")
		}
	}()
	r.NewCounter("dup_total", "")
}

func TestVecEach(t *testing.T) {
	r := NewRegistry()
	hv := r.NewHistogramVec("each_seconds", "", "engine", "phase")
	hv.With("Hash_LP", "build").Observe(time.Millisecond)
	hv.With("Hash_LP", "iterate").Observe(time.Microsecond)
	var got [][]string
	hv.Each(func(vals []string, h *Histogram) {
		got = append(got, append([]string(nil), vals...))
		if h.Count() != 1 {
			t.Fatalf("child count = %d", h.Count())
		}
	})
	if len(got) != 2 || got[0][0] != "Hash_LP" || got[0][1] != "build" || got[1][1] != "iterate" {
		t.Fatalf("Each order/labels = %v", got)
	}
}
