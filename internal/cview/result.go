package cview

import "memagg/internal/agg"

// Result is one evaluation of a view's standing query over its current
// window. Results are immutable and shared by every read of an unchanged
// view (the version cache); treat vector Values as read-only.
type Result struct {
	Name  string
	Query agg.Query

	// WindowStart is the window's exclusive lower watermark bound and
	// WindowEnd its inclusive upper one: the result covers exactly the
	// rows whose visibility watermark lies in (WindowStart, WindowEnd].
	WindowStart uint64
	WindowEnd   uint64

	PanesLive int
	Rows      uint64
	Groups    int
	Version   uint64

	// Truncated reports the window overlaps a stretch of rows recovery
	// could not replay (see View gap tracking): the result is exact over
	// the rows that survived, but short of the full window.
	Truncated bool

	// Value is the query result: []agg.GroupCount (q1, q7),
	// []agg.GroupFloat (q2, q3, quantile, mode), []agg.GroupUint
	// (sum/min/max), uint64 (q4), or float64 (q5, q6).
	Value any
}

// compute evaluates the view's query over its live panes: merge the panes
// into one window table (agg.MergeTable — the same fold the stream's
// merger uses), then run the query through agg.Run, the kernels snapshots
// use, which is what makes the window-vs-batch equivalence gate a
// reflect.DeepEqual. The window is a single table, so the scan stays on
// the calling goroutine. Callers hold v.mu; the panes are only ever
// mutated under it, so the window is consistent by construction.
func (v *View) compute(m *Metrics) *Result {
	v.settleAll(m)
	res := &Result{
		Name:        v.spec.Name,
		Query:       v.spec.Query,
		WindowStart: v.windowStart(),
		WindowEnd:   v.lastWM,
		PanesLive:   len(v.panes),
		Version:     v.ver,
		Truncated:   v.truncated(),
	}
	bound := 0
	for _, p := range v.panes {
		res.Rows += p.rows
		bound += p.Len()
	}
	var window agg.Table // zero while no pane is live
	if len(v.panes) == 1 {
		// Single live pane: query it directly, no merge copy.
		window = v.panes[0].Table
	} else if len(v.panes) > 1 {
		window = agg.NewTable(max(bound, paneTableCap))
		for _, p := range v.panes {
			agg.MergeTable(window, p.Table, v.withValues)
		}
	}
	res.Groups = window.Len()
	// Register admitted the query (valid, and holistic only on a registry
	// that buffers values), so Run cannot refuse it.
	res.Value, _ = agg.Run([]agg.Table{window}, v.spec.Query,
		agg.RunEnv{Rows: res.Rows, Holistic: v.withValues})
	return res
}
