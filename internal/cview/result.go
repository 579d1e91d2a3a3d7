package cview

import "memagg/internal/agg"

// Result is one evaluation of a view's standing query over its current
// window. Every read builds a fresh Result; the caller owns it.
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

// compute evaluates the view's query over its live panes: fold the pane
// sets, partition q into q, into a window at the panes' fan-out
// (agg.Fold — the fold the stream's merger and snapshots use), then run
// the query through agg.Run at r.workers, the kernels snapshots use,
// which is what makes the window-vs-batch equivalence gate a
// reflect.DeepEqual. Callers hold
// v.mu; the panes are only ever mutated under it, so the window is
// consistent by construction.
func (v *View) compute(r *Registry) *Result {
	v.settleAll(r)
	res := &Result{
		Name:        v.spec.Name,
		Query:       v.spec.Query,
		WindowStart: v.windowStart(),
		WindowEnd:   v.lastWM,
		PanesLive:   len(v.panes),
		Version:     v.ver,
		Truncated:   v.truncated(),
	}
	srcs := make([]agg.Source, 0, len(v.panes))
	for _, p := range v.panes {
		res.Rows += p.rows
		if p.parts != nil {
			srcs = append(srcs, agg.Source{Parts: p.parts})
		}
	}
	var window []agg.Table
	if len(srcs) == 1 {
		window = srcs[0].Parts // one pane: query it directly, no fold copy
	} else {
		window, _ = agg.Fold(make([]agg.Table, 1<<r.bits), srcs, nil, v.withValues, r.workers)
	}
	res.Groups = agg.Groups(window)
	// Register admitted the query (valid, and holistic only on a registry
	// that buffers values), so Run cannot refuse it.
	res.Value, _ = agg.Run(window, v.spec.Query,
		agg.RunEnv{Rows: res.Rows, Holistic: v.withValues, Workers: r.workers})
	return res
}
