package obs

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// WritePrometheus writes every metric of the given registries in the
// Prometheus text exposition format (version 0.0.4): one # HELP / # TYPE
// header per family followed by its series. Registries are emitted in
// order; family names must be unique across them (Register enforces it
// within one registry; callers compose registries with disjoint
// namespaces — e.g. Default + one stream + one HTTP server).
//
// Durations are exposed in seconds, the Prometheus base unit: histogram
// bucket bounds, sums and counter families whose name ends in
// `_nanos_total` stay in their recorded unit — the names say so.
func WritePrometheus(w io.Writer, regs ...*Registry) {
	for _, r := range regs {
		for _, m := range r.snapshot() {
			writeFamily(w, m)
		}
	}
}

func writeFamily(w io.Writer, m metric) {
	switch v := m.(type) {
	case *Counter:
		header(w, v.name, v.help, "counter")
		writeCounter(w, v)
	case *Gauge:
		header(w, v.name, v.help, "gauge")
		fmt.Fprintf(w, "%s%s %d\n", v.name, labelString(v.labels), v.Value())
	case *GaugeFunc:
		header(w, v.name, v.help, "gauge")
		fmt.Fprintf(w, "%s%s %d\n", v.name, labelString(v.labels), v.Value())
	case *Histogram:
		header(w, v.name, v.help, "histogram")
		writeHistogram(w, v)
	case *CounterVec:
		// Empty families still expose their header: the family exists the
		// moment the vec is registered, series appear as labels are used.
		header(w, v.name, v.help, "counter")
		v.each(func(m metric) { writeCounter(w, m.(*Counter)) })
	case *GaugeVec:
		header(w, v.name, v.help, "gauge")
		v.each(func(m metric) {
			g := m.(*Gauge)
			fmt.Fprintf(w, "%s%s %d\n", g.name, labelString(g.labels), g.Value())
		})
	case *HistogramVec:
		header(w, v.name, v.help, "histogram")
		v.each(func(m metric) { writeHistogram(w, m.(*Histogram)) })
	}
}

func header(w io.Writer, name, help, typ string) {
	if help != "" {
		fmt.Fprintf(w, "# HELP %s %s\n", name, escapeHelp(help))
	}
	fmt.Fprintf(w, "# TYPE %s %s\n", name, typ)
}

func writeCounter(w io.Writer, c *Counter) {
	fmt.Fprintf(w, "%s%s %d\n", c.name, labelString(c.labels), c.Value())
}

// writeHistogram emits the conventional _bucket/_sum/_count triplet with
// cumulative le bounds in seconds.
func writeHistogram(w io.Writer, h *Histogram) {
	s := h.Snapshot()
	var cum uint64
	for i, n := range s.Buckets {
		cum += n
		le := "+Inf"
		if b := BucketBound(i); b >= 0 {
			le = formatSeconds(float64(b) / 1e9)
		}
		fmt.Fprintf(w, "%s_bucket%s %d\n", h.name, labelStringWith(h.labels, "le", le), cum)
	}
	fmt.Fprintf(w, "%s_sum%s %s\n", h.name, labelString(h.labels), formatSeconds(float64(s.SumNano)/1e9))
	fmt.Fprintf(w, "%s_count%s %d\n", h.name, labelString(h.labels), s.Count)
}

func formatSeconds(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// labelString renders {a="x",b="y"} from the alternating name/value list,
// or "" when there are no labels.
func labelString(labels []string) string {
	return labelStringWith(labels, "", "")
}

func labelStringWith(labels []string, extraName, extraValue string) string {
	if len(labels) == 0 && extraName == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i+1 < len(labels); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		// %q escapes \, " and \n exactly as the exposition format wants.
		fmt.Fprintf(&b, "%s=%q", labels[i], labels[i+1])
	}
	if extraName != "" {
		if len(labels) > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", extraName, extraValue)
	}
	b.WriteByte('}')
	return b.String()
}

func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// Handler serves the registries as a GET /metrics endpoint (Prometheus
// text exposition).
func Handler(regs ...*Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		WritePrometheus(w, regs...)
	})
}
