package memagg

import (
	"fmt"

	"memagg/internal/agg"
	"memagg/internal/cview"
)

// ViewSpec defines a continuous view: a named standing query maintained
// incrementally over a tumbling or sliding window of the stream, in
// watermark (arrival) order. Every read folds the view's live panes into
// a fresh result instead of recomputing over the window's rows.
type ViewSpec struct {
	// Name identifies the view; non-empty, no '/', at most 128 bytes.
	Name string

	// Query is the standing query by its /v1/query spelling: q1..q7 (or
	// count_by_key, avg_by_key, median_by_key, count, avg, median, range),
	// sum, min, max, quantile, mode. Holistic spellings (q3, quantile,
	// mode) require a holistic stream.
	Query string

	// P is the quantile parameter for Query == "quantile", in [0, 1].
	P float64

	// Lo and Hi bound Query == "q7"/"range" (inclusive).
	Lo, Hi uint64

	// PaneRows is the pane width in watermark rows: pane p covers rows
	// whose visibility watermark lies in (p*PaneRows, (p+1)*PaneRows].
	PaneRows uint64

	// Panes is the window length in panes, in [1, 65536].
	Panes int

	// Sliding selects the window kind: a sliding window always covers the
	// last Panes panes; a tumbling window accumulates the current
	// Panes-pane bucket and drops it whole when the next bucket opens.
	Sliding bool
}

// ViewInfo is a point-in-time description of one continuous view.
type ViewInfo struct {
	Name     string `json:"name"`
	Query    string `json:"query"` // canonical spelling, parameters included
	PaneRows uint64 `json:"pane_rows"`
	Panes    int    `json:"panes"`
	Sliding  bool   `json:"sliding"`

	// StartWatermark is the registration watermark: rows sealed at or
	// below it stay out of every window. Watermark is the last seal the
	// view absorbed.
	StartWatermark uint64 `json:"start_watermark"`
	Watermark      uint64 `json:"watermark"`

	PanesLive    int    `json:"panes_live"`
	PanesEvicted uint64 `json:"panes_evicted"`

	// Version bumps on every pane fold and eviction; with Watermark it
	// keys HTTP ETags.
	Version uint64 `json:"version"`

	// Registration identifies this registration of the name: a view
	// dropped and registered again gets a new one, also across restarts.
	// It keys HTTP ETags beside Version and Watermark.
	Registration uint64 `json:"-"`

	// Truncated reports the window currently overlaps rows a restart
	// could not replay (the WAL was truncated past the view's saved
	// panes); it clears once the window slides past the gap.
	Truncated bool `json:"truncated"`
}

// ViewResult is one evaluation of a view's standing query over its
// current window. Every read returns a fresh result the caller owns.
type ViewResult struct {
	Name  string `json:"name"`
	Query string `json:"query"`

	// The result covers exactly the rows whose visibility watermark lies
	// in (WindowStart, WindowEnd].
	WindowStart uint64 `json:"window_start"`
	WindowEnd   uint64 `json:"window_end"`

	PanesLive int    `json:"panes_live"`
	Rows      uint64 `json:"rows"`
	Groups    int    `json:"groups"`
	Version   uint64 `json:"version"`
	Truncated bool   `json:"truncated"`

	// Value is the query result, by query family: []GroupCount (q1, q7),
	// []GroupValue (q2, q3, quantile, mode), []GroupStat (sum/min/max),
	// uint64 (q4), or float64 (q5, q6).
	Value any `json:"value"`
}

// RegisterView registers a continuous view starting at the current
// watermark: rows already sealed stay out of every window, rows sealed
// after flow in — registration mid-ingest never double-counts. Returns
// ErrViewExists for a duplicate name, ErrBadView for an invalid spec, and
// ErrUnsupportedQuery for a holistic query on a distributive stream. On a
// durable stream the definition persists immediately; pane state rides on
// checkpoints and Close, with the WAL suffix replayed through the same
// fold path on restart.
func (s *Stream) RegisterView(v ViewSpec) error {
	q, err := agg.ParseQuery(v.Query, v.P, v.Lo, v.Hi)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBadView, err)
	}
	return s.s.RegisterView(cview.Spec{
		Name:     v.Name,
		Query:    q,
		PaneRows: v.PaneRows,
		Panes:    v.Panes,
		Sliding:  v.Sliding,
	})
}

// View evaluates one continuous view's standing query over its current
// window. The result is identical to the matching snapshot query over
// exactly the window's rows.
func (s *Stream) View(name string) (*ViewResult, error) {
	res, err := s.s.ViewResult(name)
	if err != nil {
		return nil, err
	}
	return toViewResult(res), nil
}

// DropView removes a continuous view, reporting whether it existed.
func (s *Stream) DropView(name string) bool { return s.s.DropView(name) }

// Views describes every registered continuous view, sorted by name.
func (s *Stream) Views() []ViewInfo {
	infos := s.s.Views()
	out := make([]ViewInfo, len(infos))
	for i, in := range infos {
		out[i] = toViewInfo(in)
	}
	return out
}

// ViewStatus describes one continuous view without evaluating it.
func (s *Stream) ViewStatus(name string) (ViewInfo, error) {
	in, err := s.s.ViewInfo(name)
	if err != nil {
		return ViewInfo{}, err
	}
	return toViewInfo(in), nil
}

func toViewInfo(in cview.Info) ViewInfo {
	return ViewInfo{
		Name:           in.Spec.Name,
		Query:          in.Spec.Query.String(),
		PaneRows:       in.Spec.PaneRows,
		Panes:          in.Spec.Panes,
		Sliding:        in.Spec.Sliding,
		StartWatermark: in.StartWatermark,
		Watermark:      in.Watermark,
		PanesLive:      in.PanesLive,
		PanesEvicted:   in.PanesEvicted,
		Version:        in.Version,
		Registration:   in.Registration,
		Truncated:      in.Truncated,
	}
}

func toViewResult(res *cview.Result) *ViewResult {
	return &ViewResult{
		Name:        res.Name,
		Query:       res.Query.String(),
		WindowStart: res.WindowStart,
		WindowEnd:   res.WindowEnd,
		PanesLive:   res.PanesLive,
		Rows:        res.Rows,
		Groups:      res.Groups,
		Version:     res.Version,
		Truncated:   res.Truncated,
		Value:       res.Value,
	}
}
