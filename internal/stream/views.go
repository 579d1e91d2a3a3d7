package stream

import (
	"fmt"
	"path/filepath"

	"memagg/internal/cview"
)

// Continuous views (internal/cview) hang off the stream's seal-publication
// path: publish calls foldViews under viewMu, right after the WAL append,
// so every view absorbs sealed deltas in exactly watermark order — live
// ingest and WAL replay drive the same hook. On durable streams the view
// definitions persist under Dir/cview on every Register/Drop, and the
// checkpointer snapshots pane state there before each WAL truncation (plus
// once more at Close), so a restart recovers views from the snapshot and
// the replayed log suffix.

// RegisterView registers a continuous view starting at the current
// watermark: rows already sealed stay out of every window, rows sealed
// after flow in. Taking viewMu makes the start watermark exact — no seal
// can publish between the watermark read and the registration.
func (s *Stream) RegisterView(spec cview.Spec) error {
	s.viewMu.Lock()
	err := s.views.Register(spec, s.view.Load().watermark)
	s.viewMu.Unlock()
	if err != nil {
		return err
	}
	if s.dur != nil {
		if err := s.views.SaveDefs(s.dur.fs, s.cviewDir()); err != nil {
			s.views.Drop(spec.Name)
			return fmt.Errorf("stream: persist view definitions: %w", err)
		}
	}
	return nil
}

// DropView removes a continuous view, reporting whether it existed.
func (s *Stream) DropView(name string) bool {
	if !s.views.Drop(name) {
		return false
	}
	if s.dur != nil {
		// Best effort: a stale definition re-registers an empty view on the
		// next boot, which the caller can drop again.
		_ = s.views.SaveDefs(s.dur.fs, s.cviewDir())
	}
	return true
}

// Views describes every registered continuous view, sorted by name.
func (s *Stream) Views() []cview.Info { return s.views.Infos() }

// ViewInfo describes one continuous view.
func (s *Stream) ViewInfo(name string) (cview.Info, error) { return s.views.Info(name) }

// ViewResult evaluates one continuous view's standing query over its
// current window.
func (s *Stream) ViewResult(name string) (*cview.Result, error) { return s.views.Result(name) }

// foldViews feeds one sealed delta to every registered view. Called under
// viewMu by publish (after logSeal — same ordering the WAL records) and by
// recovery's replay loop; d covers watermark rows (prevWM, endWM]. The
// delta is immutable once sealed, so views queue its source — a table
// delta's partition set or a run — and fold it into their panes when they
// settle.
func (s *Stream) foldViews(prevWM, endWM uint64, d *delta) {
	s.views.OnSeal(prevWM, endWM, d.rows, d.src)
}

// cviewDir is the continuous-view persistence root on a durable stream.
func (s *Stream) cviewDir() string { return filepath.Join(s.cfg.Durability.Dir, "cview") }

// saveViewPanes snapshots pane state on a durable stream; failures are
// tolerated the same way checkpoint failures are (the WAL still covers
// every row, and gap tracking reports anything a later truncation costs).
func (s *Stream) saveViewPanes() {
	if s.dur == nil || !s.views.Active() {
		return
	}
	_ = s.views.SavePanes(s.dur.fs, s.cviewDir())
}
