package cview

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"memagg/internal/agg"
	"memagg/internal/wal"
)

// Persistence layout, under the stream's durability root:
//
//	<dir>/
//	  DEFS    view definitions: one CRC-framed JSON payload, rewritten
//	          atomically (tmp + rename + dir sync) on every Register/Drop
//	  PANES   pane state: per pane a header frame, then the pane's table
//	          as an agg group run (the checkpoint's record format and
//	          chunker), rewritten by the checkpointer and at Close
//
// DEFS is the authority on which views exist — a view registered after
// the last pane snapshot still comes back (its panes rebuild from the WAL
// suffix through the same OnSeal hook as live ingest). PANES supplies
// state for the views it knows (matched by name and registration
// watermark); replay then tops the panes up past the saved watermark. A
// stale PANES entry for a dropped view is ignored.
const (
	defsName  = "DEFS"
	panesName = "PANES"

	panesMagic   = "magv"
	panesVersion = 1
)

// savedDefs is the DEFS JSON payload.
type savedDefs struct {
	Views []savedDef `json:"views"`
}

type savedDef struct {
	Name     string  `json:"name"`
	QueryID  int     `json:"query_id"`
	Op       int     `json:"op,omitempty"`
	P        float64 `json:"p,omitempty"`
	Lo       uint64  `json:"lo,omitempty"`
	Hi       uint64  `json:"hi,omitempty"`
	PaneRows uint64  `json:"pane_rows"`
	Panes    int     `json:"panes"`
	Sliding  bool    `json:"sliding,omitempty"`
	StartWM  uint64  `json:"start_wm"`
}

func (d savedDef) spec() Spec {
	return Spec{
		Name: d.Name,
		Query: agg.Query{
			ID: agg.QueryID(d.QueryID),
			Op: agg.ReduceOp(d.Op),
			P:  d.P,
			Lo: d.Lo,
			Hi: d.Hi,
		},
		PaneRows: d.PaneRows,
		Panes:    d.Panes,
		Sliding:  d.Sliding,
	}
}

// Saved is one view's recovered definition and (when a pane snapshot
// covered it) pane state, as returned by Load.
type Saved struct {
	Spec    Spec
	StartWM uint64

	// Pane-snapshot state; zero when only the definition survived.
	LastWM       uint64
	GapLo, GapHi uint64
	Evicted      uint64
	Panes        []SavedPane
}

// SavedPane is one persisted pane: its table decoded from the run, which
// Restore adopts as the live pane's state.
type SavedPane struct {
	Idx    uint64
	Rows   uint64
	LastWM uint64
	agg.Table
}

// SaveDefs atomically rewrites the DEFS file with the current view
// definitions.
func (r *Registry) SaveDefs(fs wal.FS, dir string) error {
	r.mu.RLock()
	defs := savedDefs{Views: make([]savedDef, 0, len(r.views))}
	for _, v := range r.views {
		sp := v.spec
		defs.Views = append(defs.Views, savedDef{
			Name:     sp.Name,
			QueryID:  int(sp.Query.ID),
			Op:       int(sp.Query.Op),
			P:        sp.Query.P,
			Lo:       sp.Query.Lo,
			Hi:       sp.Query.Hi,
			PaneRows: sp.PaneRows,
			Panes:    sp.Panes,
			Sliding:  sp.Sliding,
			StartWM:  v.startWM,
		})
	}
	r.mu.RUnlock()
	payload, err := json.Marshal(defs)
	if err != nil {
		return fmt.Errorf("cview: encode defs: %w", err)
	}
	return writeAtomic(fs, dir, defsName, wal.AppendFrame(nil, payload))
}

// SavePanes atomically rewrites the PANES file with every view's live
// pane state. Called by the stream's checkpointer (before WAL truncation,
// so saved state and surviving log always jointly cover every window) and
// at Close.
func (r *Registry) SavePanes(fs wal.FS, dir string) error {
	r.mu.RLock()
	views := make([]*View, 0, len(r.views))
	for _, v := range r.views {
		views = append(views, v)
	}
	r.mu.RUnlock()

	var (
		buf []byte
		err error
	)
	hdr := make([]byte, 0, 16)
	hdr = append(hdr, panesMagic...)
	hdr = append(hdr, panesVersion)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(views)))
	buf = wal.AppendFrame(buf, hdr)
	for _, v := range views {
		if buf, err = v.appendPanes(r.m, buf); err != nil {
			return fmt.Errorf("cview: PANES view %q: %w", v.spec.Name, err)
		}
	}
	return writeAtomic(fs, dir, panesName, buf)
}

// appendPanes serializes one view's state: a view-header frame, then per
// pane a pane-header frame followed by its group-run frames. Pending
// folds settle first — the snapshot claims coverage through lastWM, so it
// must actually contain every absorbed seal.
func (v *View) appendPanes(m *Metrics, dst []byte) ([]byte, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.settleAll(m)
	p := make([]byte, 0, 64+len(v.spec.Name))
	p = binary.LittleEndian.AppendUint32(p, uint32(len(v.spec.Name)))
	p = append(p, v.spec.Name...)
	if v.withValues {
		p = append(p, 1)
	} else {
		p = append(p, 0)
	}
	p = binary.LittleEndian.AppendUint64(p, v.startWM)
	p = binary.LittleEndian.AppendUint64(p, v.lastWM)
	p = binary.LittleEndian.AppendUint64(p, v.gapLo)
	p = binary.LittleEndian.AppendUint64(p, v.gapHi)
	p = binary.LittleEndian.AppendUint64(p, v.evicted)
	p = binary.LittleEndian.AppendUint32(p, uint32(len(v.panes)))
	dst = wal.AppendFrame(dst, p)
	for _, pn := range v.panes {
		var err error
		if dst, err = pn.append(dst, v.withValues); err != nil {
			return dst, err
		}
	}
	return dst, nil
}

// append serializes one pane: a header frame counting the run's frames,
// then the pane's table as a group run.
func (pn *pane) append(dst []byte, withValues bool) ([]byte, error) {
	var frames []byte
	run := agg.NewRunWriter(nil, withValues, func(f []byte) error {
		frames = append(frames, f...)
		return nil
	})
	run.Add(pn.Table)
	if err := run.Close(); err != nil {
		return dst, err
	}
	hdr := make([]byte, 0, 28)
	hdr = binary.LittleEndian.AppendUint64(hdr, pn.idx)
	hdr = binary.LittleEndian.AppendUint64(hdr, pn.rows)
	hdr = binary.LittleEndian.AppendUint64(hdr, pn.lastWM)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(run.Frames()))
	dst = wal.AppendFrame(dst, hdr)
	return append(dst, frames...), nil
}

// Load recovers the persisted view set from dir: definitions from DEFS,
// pane state from PANES where it matches (same name, same registration
// watermark). Either file may be absent — no views, or definitions only.
func Load(fs wal.FS, dir string) ([]Saved, error) {
	defs, err := loadDefs(fs, dir)
	if err != nil || len(defs) == 0 {
		return nil, err
	}
	states, err := loadPanes(fs, dir)
	if err != nil {
		return nil, err
	}
	out := make([]Saved, 0, len(defs))
	for _, d := range defs {
		sv := Saved{Spec: d.spec(), StartWM: d.StartWM}
		if st, ok := states[d.Name]; ok && st.StartWM == d.StartWM {
			sv.LastWM = st.LastWM
			sv.GapLo, sv.GapHi = st.GapLo, st.GapHi
			sv.Evicted = st.Evicted
			sv.Panes = st.Panes
		}
		out = append(out, sv)
	}
	return out, nil
}

func loadDefs(fs wal.FS, dir string) ([]savedDef, error) {
	f, err := fs.Open(filepath.Join(dir, defsName))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, nil
		}
		return nil, fmt.Errorf("cview: open DEFS: %w", err)
	}
	defer f.Close()
	payload, _, err := wal.ReadFrame(bufio.NewReaderSize(f, 1<<16))
	if err != nil {
		return nil, fmt.Errorf("cview: DEFS: %w", err)
	}
	var defs savedDefs
	if err := json.Unmarshal(payload, &defs); err != nil {
		return nil, fmt.Errorf("cview: decode DEFS: %v: %w", err, wal.ErrWALCorrupt)
	}
	return defs.Views, nil
}

func loadPanes(fs wal.FS, dir string) (map[string]Saved, error) {
	f, err := fs.Open(filepath.Join(dir, panesName))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, nil
		}
		return nil, fmt.Errorf("cview: open PANES: %w", err)
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 1<<20)
	hdr, _, err := wal.ReadFrame(r)
	if err != nil {
		return nil, fmt.Errorf("cview: PANES header: %w", err)
	}
	if len(hdr) != 9 || string(hdr[:4]) != panesMagic || hdr[4] != panesVersion {
		return nil, fmt.Errorf("cview: bad PANES header: %w", wal.ErrWALCorrupt)
	}
	nviews := int(binary.LittleEndian.Uint32(hdr[5:9]))
	out := make(map[string]Saved, nviews)
	for i := 0; i < nviews; i++ {
		name, sv, err := readView(r)
		if err != nil {
			return nil, err
		}
		out[name] = sv
	}
	return out, nil
}

func readView(r *bufio.Reader) (string, Saved, error) {
	p, _, err := wal.ReadFrame(r)
	if err != nil {
		return "", Saved{}, fmt.Errorf("cview: PANES view header: %w", err)
	}
	if len(p) < 4 {
		return "", Saved{}, fmt.Errorf("cview: short view header: %w", wal.ErrWALCorrupt)
	}
	nameLen := int(binary.LittleEndian.Uint32(p[:4]))
	if len(p) != 4+nameLen+1+5*8+4 {
		return "", Saved{}, fmt.Errorf("cview: view header size: %w", wal.ErrWALCorrupt)
	}
	name := string(p[4 : 4+nameLen])
	o := 4 + nameLen
	withValues := p[o] == 1
	o++
	var sv Saved
	sv.StartWM = binary.LittleEndian.Uint64(p[o:])
	sv.LastWM = binary.LittleEndian.Uint64(p[o+8:])
	sv.GapLo = binary.LittleEndian.Uint64(p[o+16:])
	sv.GapHi = binary.LittleEndian.Uint64(p[o+24:])
	sv.Evicted = binary.LittleEndian.Uint64(p[o+32:])
	npanes := int(binary.LittleEndian.Uint32(p[o+40:]))
	if npanes < 0 || npanes > maxPanes {
		return "", Saved{}, fmt.Errorf("cview: pane count %d: %w", npanes, wal.ErrWALCorrupt)
	}
	sv.Panes = make([]SavedPane, 0, npanes)
	for i := 0; i < npanes; i++ {
		pn, err := readPane(r, withValues)
		if err != nil {
			return "", Saved{}, err
		}
		sv.Panes = append(sv.Panes, pn)
	}
	return name, sv, nil
}

func readPane(r *bufio.Reader, withValues bool) (SavedPane, error) {
	hdr, _, err := wal.ReadFrame(r)
	if err != nil {
		return SavedPane{}, fmt.Errorf("cview: PANES pane header: %w", err)
	}
	if len(hdr) != 28 {
		return SavedPane{}, fmt.Errorf("cview: pane header size: %w", wal.ErrWALCorrupt)
	}
	pn := SavedPane{
		Idx:    binary.LittleEndian.Uint64(hdr[0:]),
		Rows:   binary.LittleEndian.Uint64(hdr[8:]),
		LastWM: binary.LittleEndian.Uint64(hdr[16:]),
	}
	chunks := int(binary.LittleEndian.Uint32(hdr[24:]))
	run := make([]agg.Table, 1)
	for c := 0; c < chunks; c++ {
		p, _, err := wal.ReadFrame(r)
		if err != nil {
			return SavedPane{}, fmt.Errorf("cview: PANES group run: %w", err)
		}
		if _, err := agg.DecodeRunFrame(run, p, withValues); err != nil {
			return SavedPane{}, fmt.Errorf("cview: PANES group run: %w: %w", err, wal.ErrWALCorrupt)
		}
	}
	pn.Table = run[0]
	return pn, nil
}

// Restore registers a recovered view with its saved pane state. The WAL
// suffix then replays through OnSeal to cover rows past the saved
// watermark; any stretch the log no longer carries surfaces through the
// view's gap tracking as a Truncated result, never a silent shortfall.
func (r *Registry) Restore(sv Saved) error {
	if err := r.Register(sv.Spec, sv.StartWM); err != nil {
		return err
	}
	r.mu.RLock()
	v := r.views[sv.Spec.Name]
	r.mu.RUnlock()
	v.mu.Lock()
	defer v.mu.Unlock()
	if sv.LastWM > v.lastWM {
		v.lastWM = sv.LastWM
	}
	v.gapLo, v.gapHi = sv.GapLo, sv.GapHi
	v.evicted = sv.Evicted
	for _, spn := range sv.Panes {
		v.panes = append(v.panes, &pane{idx: spn.Idx, Table: spn.Table, rows: spn.Rows, lastWM: spn.LastWM})
	}
	return nil
}

// writeAtomic creates dir if needed and atomically replaces dir/name with
// data through wal.ReplaceFile.
func writeAtomic(fs wal.FS, dir, name string, data []byte) error {
	if err := fs.MkdirAll(dir); err != nil {
		return fmt.Errorf("cview: mkdir %s: %w", dir, err)
	}
	if err := wal.ReplaceFile(fs, dir, name, data); err != nil {
		return fmt.Errorf("cview: %w", err)
	}
	return nil
}
