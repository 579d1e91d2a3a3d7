package obs

import (
	"fmt"
	"sync"
)

// metric is anything a Registry can serve. The encoder switches on the
// concrete type (prom.go).
type metric interface {
	Name() string
}

// Registry owns a set of metrics and serves them (WritePrometheus). The
// process-global Default registry holds the package-level
// instrumentation (engine phases, arena accounting); components with
// per-instance state (a Stream, an HTTP server) carry their own Registry
// so two instances never share a counter. Safe for concurrent use.
type Registry struct {
	mu      sync.Mutex
	metrics []metric
	names   map[string]bool // family name -> registered (vecs share one family)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{names: make(map[string]bool)}
}

// Default is the process-global registry: package-level instrumentation
// (engine phase timings, arena accounting) registers here.
var Default = NewRegistry()

// register adds m, panicking on a duplicate family name: metric names are
// API, and two metrics sharing one is always a programming error.
func (r *Registry) register(name string, m metric) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.names[name] {
		panic(fmt.Sprintf("obs: duplicate metric %q", name))
	}
	r.names[name] = true
	r.metrics = append(r.metrics, m)
}

// snapshot returns the registered metrics in registration order.
func (r *Registry) snapshot() []metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]metric(nil), r.metrics...)
}

// NewCounter registers and returns a counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	c := &Counter{meta: meta{name: name, help: help}}
	r.register(name, c)
	return c
}

// NewGauge registers and returns a gauge.
func (r *Registry) NewGauge(name, help string) *Gauge {
	g := &Gauge{meta: meta{name: name, help: help}}
	r.register(name, g)
	return g
}

// NewGaugeFunc registers a gauge computed at scrape time.
func (r *Registry) NewGaugeFunc(name, help string, fn func() int64) *GaugeFunc {
	g := &GaugeFunc{meta: meta{name: name, help: help}, fn: fn}
	r.register(name, g)
	return g
}

// NewHistogram registers and returns a duration histogram.
func (r *Registry) NewHistogram(name, help string) *Histogram {
	h := &Histogram{meta: meta{name: name, help: help}}
	r.register(name, h)
	return h
}

// vec is the shared child management of the labelled metric families: one
// family name, one child metric per distinct label-value tuple. With is a
// sync.Map load on the hot path; children are created once under a mutex.
type vec struct {
	meta
	labelNames []string
	children   sync.Map // key string -> metric
	mu         sync.Mutex
	order      []string // child keys in creation order, for stable output
}

func (v *vec) child(labelValues []string, mk func(meta) metric) metric {
	if len(labelValues) != len(v.labelNames) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d",
			v.name, len(v.labelNames), len(labelValues)))
	}
	key := ""
	for i, lv := range labelValues {
		if i > 0 {
			key += "\x1f"
		}
		key += lv
	}
	if m, ok := v.children.Load(key); ok {
		return m.(metric)
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if m, ok := v.children.Load(key); ok {
		return m.(metric)
	}
	labels := make2(v.labelNames, labelValues)
	m := mk(meta{name: v.name, help: v.help, labels: labels})
	v.children.Store(key, m)
	v.order = append(v.order, key)
	return m
}

// make2 zips label names and values into meta's alternating form.
func make2(names, values []string) []string {
	out := make([]string, 0, 2*len(names))
	for i, n := range names {
		out = append(out, n, values[i])
	}
	return out
}

// each visits the children in creation order.
func (v *vec) each(fn func(m metric)) {
	v.mu.Lock()
	keys := append([]string(nil), v.order...)
	v.mu.Unlock()
	for _, k := range keys {
		if m, ok := v.children.Load(k); ok {
			fn(m.(metric))
		}
	}
}

// CounterVec is a family of counters keyed by label values (e.g. one per
// HTTP route and status).
type CounterVec struct{ vec }

// NewCounterVec registers a counter family with the given label names.
func (r *Registry) NewCounterVec(name, help string, labelNames ...string) *CounterVec {
	v := &CounterVec{vec{meta: meta{name: name, help: help}, labelNames: labelNames}}
	r.register(name, v)
	return v
}

// With returns the counter for the given label values, creating it on
// first use.
func (v *CounterVec) With(labelValues ...string) *Counter {
	return v.child(labelValues, func(m meta) metric { return &Counter{meta: m} }).(*Counter)
}

// GaugeVec is a family of gauges keyed by label values (e.g. one breaker
// state per cluster peer).
type GaugeVec struct{ vec }

// NewGaugeVec registers a gauge family with the given label names.
func (r *Registry) NewGaugeVec(name, help string, labelNames ...string) *GaugeVec {
	v := &GaugeVec{vec{meta: meta{name: name, help: help}, labelNames: labelNames}}
	r.register(name, v)
	return v
}

// With returns the gauge for the given label values, creating it on first
// use.
func (v *GaugeVec) With(labelValues ...string) *Gauge {
	return v.child(labelValues, func(m meta) metric { return &Gauge{meta: m} }).(*Gauge)
}

// Each visits every materialized gauge of the family with its label
// values, in creation order.
func (v *GaugeVec) Each(fn func(labelValues []string, g *Gauge)) {
	v.each(func(m metric) {
		g := m.(*Gauge)
		vals := make([]string, 0, len(g.labels)/2)
		for i := 1; i < len(g.labels); i += 2 {
			vals = append(vals, g.labels[i])
		}
		fn(vals, g)
	})
}

// HistogramVec is a family of histograms keyed by label values (e.g. one
// per engine and phase).
type HistogramVec struct{ vec }

// NewHistogramVec registers a histogram family with the given label names.
func (r *Registry) NewHistogramVec(name, help string, labelNames ...string) *HistogramVec {
	v := &HistogramVec{vec{meta: meta{name: name, help: help}, labelNames: labelNames}}
	r.register(name, v)
	return v
}

// With returns the histogram for the given label values, creating it on
// first use.
func (v *HistogramVec) With(labelValues ...string) *Histogram {
	return v.child(labelValues, func(m meta) metric { return &Histogram{meta: m} }).(*Histogram)
}

// Each visits every materialized histogram of the family along with its
// label values, in creation order — the walk the typed Stats APIs use.
func (v *HistogramVec) Each(fn func(labelValues []string, h *Histogram)) {
	v.each(func(m metric) {
		h := m.(*Histogram)
		vals := make([]string, 0, len(h.labels)/2)
		for i := 1; i < len(h.labels); i += 2 {
			vals = append(vals, h.labels[i])
		}
		fn(vals, h)
	})
}

// Each visits every materialized counter of the family with its label
// values, in creation order.
func (v *CounterVec) Each(fn func(labelValues []string, c *Counter)) {
	v.each(func(m metric) {
		c := m.(*Counter)
		vals := make([]string, 0, len(c.labels)/2)
		for i := 1; i < len(c.labels); i += 2 {
			vals = append(vals, c.labels[i])
		}
		fn(vals, c)
	})
}
