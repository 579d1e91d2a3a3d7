// Package cview is the continuous-view subsystem: named standing queries
// over tumbling or sliding windows of a stream, maintained incrementally
// from the seal-publication path instead of recomputed per read.
//
// A view is a ring of panes in watermark order. A pane is a partition set
// of agg.Partial tables — the same shape and state the stream's deltas
// hold — covering PaneRows rows of the publication watermark: pane p owns
// the rows whose visibility watermark falls in (p*W, (p+1)*W]. Sealed
// deltas are folded into panes as they publish (the stream calls OnSeal
// under its view lock, right after the WAL append, so pane assignment
// follows watermark order exactly); a whole delta lands in the pane that
// contains its end watermark — deltas are the stream's atomic unit of
// visibility, so windows advance delta by delta, never splitting one.
//
// Reads fold the live panes into a partition set with agg.Fold and run
// the registered query over it through agg.Run, partition-parallel — the
// same fold and the same kernels snapshots use — so a view's result is
// identical to the batch query over the rows its window covers (the
// window-vs-batch equivalence gate in internal/stream asserts
// reflect.DeepEqual, holistics included). Every read computes afresh and
// returns a result the caller owns; a version counter, bumped on every
// fold and eviction, lets servers key their own response caches on it.
//
// Retention is evaluated when a seal opens a new pane: a sliding window
// of N panes keeps [p-N+1, p]; a tumbling window keeps the current
// N-pane bucket [p - p%N, p] (it accumulates, then drops whole). Evicted
// panes free their tables and arenas wholesale.
//
// Restart recovery is two-layered: view definitions persist on every
// Register/Drop (DEFS), pane state persists with every stream checkpoint
// and at close (PANES), and the WAL suffix replays through the same
// OnSeal hook as live ingest. A view whose replay cannot cover part of
// its window — the log was truncated past its saved state — reports
// Truncated until the window slides past the gap, rather than serving a
// silently short count.
package cview

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"memagg/internal/agg"
	"memagg/internal/arena"
	"memagg/internal/hashtbl"
	"memagg/internal/obs"
)

// Sentinel errors, re-exported by the memagg facade.
var (
	// ErrExists reports a Register with a name already registered.
	ErrExists = errors.New("cview: view already registered")
	// ErrUnknown reports a lookup of a view name never registered (or
	// dropped).
	ErrUnknown = errors.New("cview: unknown view")
	// ErrBadSpec reports an invalid view specification.
	ErrBadSpec = errors.New("cview: invalid view spec")
)

// maxPanes bounds a window's pane count: a ring is merged whole on every
// read, so an absurd count is a config bug, not a bigger window.
const maxPanes = 1 << 16

// Spec defines one continuous view.
type Spec struct {
	// Name identifies the view (Register/Result/Drop key, HTTP path
	// element). Non-empty, no '/', at most 128 bytes.
	Name string

	// Query is the standing query evaluated over the window.
	Query agg.Query

	// PaneRows is the pane width in watermark rows: pane p covers the
	// rows whose publication watermark lies in (p*PaneRows, (p+1)*PaneRows].
	PaneRows uint64

	// Panes is the window length in panes.
	Panes int

	// Sliding selects the window kind: a sliding window always covers the
	// last Panes panes; a tumbling window accumulates the current
	// Panes-pane bucket and drops it whole when the next bucket opens.
	Sliding bool
}

func (sp Spec) validate(holistic bool) error {
	if sp.Name == "" || len(sp.Name) > 128 {
		return fmt.Errorf("%w: name must be 1..128 bytes", ErrBadSpec)
	}
	for i := 0; i < len(sp.Name); i++ {
		if sp.Name[i] == '/' {
			return fmt.Errorf("%w: name must not contain '/'", ErrBadSpec)
		}
	}
	if sp.PaneRows == 0 {
		return fmt.Errorf("%w: PaneRows must be >= 1", ErrBadSpec)
	}
	if sp.Panes < 1 || sp.Panes > maxPanes {
		return fmt.Errorf("%w: Panes must be in [1, %d]", ErrBadSpec, maxPanes)
	}
	if err := sp.Query.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrBadSpec, err)
	}
	if sp.Query.NeedsValues() && !holistic {
		return fmt.Errorf("%s view %q: %w", sp.Query, sp.Name, agg.ErrUnsupported)
	}
	return nil
}

// retentionFloor returns the lowest pane index retained while pane pIdx
// is current.
func (sp Spec) retentionFloor(pIdx uint64) uint64 {
	n := uint64(sp.Panes)
	if sp.Sliding {
		if pIdx >= n-1 {
			return pIdx - (n - 1)
		}
		return 0
	}
	return pIdx - pIdx%n
}

// Metrics is the instrument set a Registry records into; any field (or
// the whole struct) may be nil.
type Metrics struct {
	Updates      *obs.Counter // pane folds applied (at settle, one per view per seal)
	PanesOpened  *obs.Counter
	PanesEvicted *obs.Counter
	Reads        *obs.Counter   // Result calls
	UpdateLat    *obs.Histogram // per-settle latency (a batch of deferred folds)
}

// Registry holds a stream's registered views. All methods are safe for
// concurrent use; OnSeal callers must serialize among themselves (the
// stream calls it under its publication lock, which also makes the
// watermark Register observes exact).
type Registry struct {
	holistic bool
	bits     int    // pane and window fan-out: partition sets of 2^bits tables
	owned    []bool // a true per pane partition: settles fold in place
	workers  int    // window fold and scan parallelism
	m        *Metrics

	// active mirrors len(views) so the per-seal fast path is one atomic
	// load, not a lock.
	active atomic.Int32

	mu    sync.RWMutex
	views map[string]*View
	regs  uint64 // last registration identity handed out; under mu
}

// NewRegistry builds an empty registry. holistic gates value-multiset
// queries; panes, and the window a read folds them into, are partition
// sets of 2^bits tables (0 <= bits <= agg.MaxPartBits), the fan-out of
// the table deltas OnSeal delivers; reads fold and scan the window
// across workers; m may be nil.
func NewRegistry(holistic bool, bits, workers int, m *Metrics) *Registry {
	if m == nil {
		m = &Metrics{}
	}
	owned := make([]bool, 1<<bits)
	for q := range owned {
		owned[q] = true
	}
	return &Registry{
		holistic: holistic, bits: bits, owned: owned, workers: workers, m: m,
		views: make(map[string]*View),
		// Registration identities count up from the boot clock, so they
		// also differ from every identity an earlier process handed out.
		regs: uint64(time.Now().UnixNano()),
	}
}

// Active reports whether any view is registered — the seal path's cheap
// pre-check.
func (r *Registry) Active() bool { return r.active.Load() > 0 }

// Len returns the number of registered views.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.views)
}

// Register adds a view starting at watermark startWM: rows already sealed
// at registration stay out of every window, rows sealed after flow in —
// no double counting either way.
func (r *Registry) Register(spec Spec, startWM uint64) error {
	if err := spec.validate(r.holistic); err != nil {
		return err
	}
	v := &View{
		spec:       spec,
		withValues: spec.Query.NeedsValues(),
		startWM:    startWM,
		lastWM:     startWM,
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.views[spec.Name]; ok {
		return fmt.Errorf("%w: %q", ErrExists, spec.Name)
	}
	r.regs++
	v.reg = r.regs
	r.views[spec.Name] = v
	r.active.Store(int32(len(r.views)))
	return nil
}

// Drop removes a view, reporting whether it existed.
func (r *Registry) Drop(name string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.views[name]; !ok {
		return false
	}
	delete(r.views, name)
	r.active.Store(int32(len(r.views)))
	return true
}

// OnSeal feeds one sealed delta to every view: the delta covers rows
// (prevWM, endWM] of the publication watermark and carries rows of them;
// delta is its agg.Fold source, immutable from here on — a partition set
// at the registry's fan-out (carrying value multisets when the registry
// is holistic) or a run at that fan-out or finer. Callers serialize OnSeal
// calls and deliver them in watermark order (live publication and WAL
// replay both do).
func (r *Registry) OnSeal(prevWM, endWM, rows uint64, delta agg.Source) {
	if !r.Active() {
		return
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, v := range r.views {
		v.absorb(r, prevWM, endWM, rows, delta)
	}
}

// NeedSeal reports whether any view still wants a delta ending at endWM —
// the replay path's pre-check, so recovery skips rebuilding deltas no
// view (and no other consumer) needs.
func (r *Registry) NeedSeal(endWM uint64) bool {
	if !r.Active() {
		return false
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, v := range r.views {
		v.mu.Lock()
		want := endWM > v.barrier()
		v.mu.Unlock()
		if want {
			return true
		}
	}
	return false
}

// ReplayFloor returns the lowest watermark barrier across views and
// whether any view is registered: recovery must replay WAL records past
// that floor even when a base checkpoint already covers them, because
// views track panes the checkpoint cannot reconstruct.
func (r *Registry) ReplayFloor() (uint64, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var (
		floor uint64
		any   bool
	)
	for _, v := range r.views {
		v.mu.Lock()
		b := v.barrier()
		v.mu.Unlock()
		if !any || b < floor {
			floor = b
		}
		any = true
	}
	return floor, any
}

// PanesLive returns the total live pane count across views.
func (r *Registry) PanesLive() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	n := 0
	for _, v := range r.views {
		v.mu.Lock()
		n += len(v.panes)
		v.mu.Unlock()
	}
	return n
}

// Staleness returns the largest gap between the given ingested row count
// and any view's last absorbed watermark — rows ingested but not yet
// reflected in the most lagging view.
func (r *Registry) Staleness(ingested uint64) uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var max uint64
	for _, v := range r.views {
		v.mu.Lock()
		wm := v.lastWM
		v.mu.Unlock()
		if ingested > wm && ingested-wm > max {
			max = ingested - wm
		}
	}
	return max
}

// Info is a point-in-time description of one view.
type Info struct {
	Spec           Spec
	Registration   uint64 // identity of this Register call: a re-registered name gets a new one
	StartWatermark uint64 // registration watermark: rows at or below stay out
	Watermark      uint64 // last absorbed seal watermark
	PanesLive      int
	PanesEvicted   uint64
	Version        uint64 // bumps on every fold and eviction
	Truncated      bool   // window currently overlaps a replay gap
}

// Info returns one view's description.
func (r *Registry) Info(name string) (Info, error) {
	r.mu.RLock()
	v, ok := r.views[name]
	r.mu.RUnlock()
	if !ok {
		return Info{}, fmt.Errorf("%w: %q", ErrUnknown, name)
	}
	return v.info(), nil
}

// Infos returns every view's description, sorted by name.
func (r *Registry) Infos() []Info {
	r.mu.RLock()
	views := make([]*View, 0, len(r.views))
	for _, v := range r.views {
		views = append(views, v)
	}
	r.mu.RUnlock()
	out := make([]Info, len(views))
	for i, v := range views {
		out[i] = v.info()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Spec.Name < out[j].Spec.Name })
	return out
}

// Result evaluates one view's standing query over its current window.
func (r *Registry) Result(name string) (*Result, error) {
	r.mu.RLock()
	v, ok := r.views[name]
	r.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknown, name)
	}
	r.m.Reads.Inc()
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.compute(r), nil
}

// View is one registered continuous view: its spec, its ring of live
// panes, and the water-level bookkeeping that makes recovery honest.
type View struct {
	spec       Spec
	reg        uint64 // registration identity (see Info.Registration)
	withValues bool
	startWM    uint64

	mu      sync.Mutex
	panes   []*pane // ascending pane index; all >= the current retention floor
	lastWM  uint64  // watermark of the last absorbed seal (>= startWM)
	evicted uint64
	ver     uint64 // bumps on fold/evict; keys ETags

	// gapLo/gapHi record rows (gapLo, gapHi] that can never reach this
	// view: a replayed seal arrived with prevWM past the view's barrier,
	// so the log no longer covers the stretch between them. Results
	// report Truncated while the window overlaps the gap.
	gapLo, gapHi uint64
}

// pane is one window slot: the merged partial state of every delta whose
// end watermark fell inside it, as a partition set at the pane fan-out.
// Maintenance is deferred: absorb only queues the sealed delta's
// source, and the folds run when somebody needs the pane's set —
// a read, a pane snapshot, or the pending cap. That keeps the
// seal-publication path O(1) per view, and a pane evicted before it is
// ever read never pays for its folds, or for its set, at all. A pane
// with no set (nil parts) holds no groups.
type pane struct {
	idx     uint64
	parts   []agg.Table
	rows    uint64
	lastWM  uint64
	pending []agg.Source // sealed deltas not yet folded in
}

// maxPendingFolds bounds a pane's deferred-fold queue. Each queued fold
// pins its sealed delta in memory, so a view that is never read must not
// accumulate them without bound: past the cap the ingest path settles
// inline, amortizing the cost it deferred.
const maxPendingFolds = 32

// settle folds the pane's queued deltas into its set in place with
// agg.Fold — a table delta partition q into q, a run delta's rows for
// pane partition q into q — value multisets only for views whose
// query needs them. The set is created here, on the pane's first settle:
// a pane evicted before anything reads it never allocates one. Callers
// hold the owning view's mu.
func (p *pane) settle(r *Registry, withValues bool) {
	if len(p.pending) == 0 {
		return
	}
	mk := obs.Start()
	if p.parts == nil {
		p.parts = newPaneSet(1 << r.bits)
	}
	p.parts, _ = agg.Fold(p.parts, p.pending, r.owned, withValues, 1)
	r.m.Updates.Add(uint64(len(p.pending)))
	mk.Tick(r.m.UpdateLat)
	clear(p.pending)
	p.pending = p.pending[:0]
}

// newPaneSet returns an empty pane set of n tables, so that a settle folds
// into every partition in place, all on one arena like a stream delta's:
// an arena per partition would pin a 512 KiB chunk each once values are
// buffered.
func newPaneSet(n int) []agg.Table {
	parts := make([]agg.Table, n)
	ar := arena.New()
	for q := range parts {
		parts[q] = agg.Table{T: hashtbl.NewLinearProbe[agg.Partial](0), Ar: ar}
	}
	return parts
}

// settleAll applies every live pane's pending folds. Callers hold v.mu.
func (v *View) settleAll(r *Registry) {
	for _, p := range v.panes {
		p.settle(r, v.withValues)
	}
}

// barrier returns the watermark at or below which seals are already
// accounted for (absorbed, or excluded by registration time). Callers
// hold v.mu.
func (v *View) barrier() uint64 {
	if v.lastWM > v.startWM {
		return v.lastWM
	}
	return v.startWM
}

// absorb accounts one sealed delta to the pane containing its end
// watermark, opening the pane (and evicting expired ones) if needed. The
// merge itself is deferred: absorb queues the delta on the pane and bumps
// the version, so the seal path stays O(1) per view and readers settle on
// demand.
func (v *View) absorb(r *Registry, prevWM, endWM, rows uint64, delta agg.Source) {
	v.mu.Lock()
	defer v.mu.Unlock()
	bar := v.barrier()
	if endWM <= bar {
		return // already absorbed, or sealed before registration
	}
	if prevWM > bar {
		// Replay skipped (bar, prevWM]: the WAL no longer carries those
		// rows for this view. Record the gap; reads flag Truncated until
		// the window slides wholly past it.
		v.gapLo, v.gapHi = bar, prevWM
	}
	pIdx := (endWM - 1) / v.spec.PaneRows
	cur := v.tail()
	if cur == nil || cur.idx != pIdx {
		cur = v.open(r, pIdx)
	}
	cur.pending = append(cur.pending, delta)
	if len(cur.pending) >= maxPendingFolds {
		cur.settle(r, v.withValues)
	}
	cur.rows += rows
	cur.lastWM = endWM
	v.lastWM = endWM
	v.ver++
}

func (v *View) tail() *pane {
	if len(v.panes) == 0 {
		return nil
	}
	return v.panes[len(v.panes)-1]
}

// open appends a fresh pane for pIdx and evicts panes below the new
// retention floor. Callers hold v.mu.
func (v *View) open(r *Registry, pIdx uint64) *pane {
	floor := v.spec.retentionFloor(pIdx)
	drop := 0
	for drop < len(v.panes) && v.panes[drop].idx < floor {
		drop++
	}
	if drop > 0 {
		// Evicted panes free wholesale: the tables and arena are the only
		// owners of the pane's state, and any still-pending folds are
		// dropped unrun — work a never-read pane never has to pay.
		copy(v.panes, v.panes[drop:])
		for i := len(v.panes) - drop; i < len(v.panes); i++ {
			v.panes[i] = nil
		}
		v.panes = v.panes[:len(v.panes)-drop]
		v.evicted += uint64(drop)
		r.m.PanesEvicted.Add(uint64(drop))
	}
	p := &pane{idx: pIdx}
	v.panes = append(v.panes, p)
	r.m.PanesOpened.Inc()
	return p
}

func (v *View) info() Info {
	v.mu.Lock()
	defer v.mu.Unlock()
	return Info{
		Spec:           v.spec,
		Registration:   v.reg,
		StartWatermark: v.startWM,
		Watermark:      v.lastWM,
		PanesLive:      len(v.panes),
		PanesEvicted:   v.evicted,
		Version:        v.ver,
		Truncated:      v.truncated(),
	}
}

// truncated reports whether the current window still overlaps the
// recorded replay gap. Callers hold v.mu.
func (v *View) truncated() bool {
	if v.gapHi <= v.gapLo {
		return false
	}
	return v.windowStart() < v.gapHi
}

// windowStart returns the window's exclusive lower watermark bound: the
// retention floor's left edge, clamped to the registration watermark.
// Callers hold v.mu.
func (v *View) windowStart() uint64 {
	if len(v.panes) == 0 {
		return v.barrier()
	}
	ws := v.spec.retentionFloor(v.panes[len(v.panes)-1].idx) * v.spec.PaneRows
	if ws < v.startWM {
		ws = v.startWM
	}
	return ws
}
