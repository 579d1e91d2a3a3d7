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
	Name string `json:"name"`

	// Query is the standing query by its /v1/query spelling: q1..q7 (or
	// count_by_key, avg_by_key, median_by_key, count, avg, median, range),
	// sum, min, max, quantile, mode. Holistic spellings (q3, quantile,
	// mode) require a holistic stream.
	Query string `json:"query"`

	// P is the quantile parameter for Query == "quantile", in [0, 1].
	P float64 `json:"p,omitempty"`

	// Lo and Hi bound Query == "q7"/"range" (inclusive).
	Lo uint64 `json:"lo,omitempty"`
	Hi uint64 `json:"hi,omitempty"`

	// PaneRows is the pane width in watermark rows: pane p covers rows
	// whose visibility watermark lies in (p*PaneRows, (p+1)*PaneRows].
	PaneRows uint64 `json:"pane_rows"`

	// Panes is the window length in panes, in [1, 65536].
	Panes int `json:"panes"`

	// Sliding selects the window kind: a sliding window always covers the
	// last Panes panes; a tumbling window accumulates the current
	// Panes-pane bucket and drops it whole when the next bucket opens.
	Sliding bool `json:"sliding,omitempty"`
}

// ViewInfo is a point-in-time description of one continuous view: its
// spec, with the query in canonical spelling, and its window state
// (watermarks, live and evicted panes, version, truncation). Its JSON
// encoding is the /v1/views description body.
type ViewInfo = cview.Info

// ViewResult is one evaluation of a view's standing query over its
// current window; every read returns a fresh result the caller owns.
// Value holds the query result by query family: []GroupCount (q1, q7),
// []GroupValue (q2, q3, quantile, mode), []GroupStat (sum/min/max),
// uint64 (q4), or float64 (q5, q6).
type ViewResult = cview.Result

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
func (s *Stream) View(name string) (*ViewResult, error) { return s.s.ViewResult(name) }

// DropView removes a continuous view, reporting whether it existed.
func (s *Stream) DropView(name string) bool { return s.s.DropView(name) }

// Views describes every registered continuous view, sorted by name.
func (s *Stream) Views() []ViewInfo { return s.s.Views() }

// ViewStatus describes one continuous view without evaluating it.
func (s *Stream) ViewStatus(name string) (ViewInfo, error) { return s.s.ViewInfo(name) }
