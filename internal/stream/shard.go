package stream

import (
	"memagg/internal/agg"
	"memagg/internal/arena"
)

// delta is one shard's in-progress (then sealed) state, of one of two
// kinds. A table delta aggregates as it absorbs: src.Parts is a partition
// set at the stream's MergeBits, every partition's value lists in the one
// arena ar, each row routed to its partition as it lands, so a merge
// folds delta partition q straight into base partition q. A run delta
// aggregates nothing: it keeps the columns of every batch it took and at
// seal scatters them into src.Rows, a run at MergeBits, which a merge
// folds row by row into the base partitions. Either way src is what
// merges, snapshot folds and continuous views read once the delta seals.
// keys/vals hold the columns of every batch the delta took (one segment
// per batch, in arrival order) while somebody still needs them: a run
// delta's seal, and on durable streams the seal's WAL record, which
// carries rows, not aggregate state, so a replay rebuilds the exact
// delta. logSeal writes the segments out and drops them.
type delta struct {
	src        agg.Source
	ar         *arena.Arena
	rows       uint64
	keys, vals [][]uint64
}

// runCutoff is the reduction — rows per group — below which a shard's
// deltas are runs. A table delta's build costs a probe per row plus the
// tables and their arena, and pays off only when it cuts the rows the
// merge has to probe again; the single-thread sweep in
// BenchmarkStreamIngest (EXPERIMENTS.md, "Run deltas") found the two
// kinds even at 16 rows per group and the run cheaper below.
const runCutoff = 16

// tableEvery makes every tableEvery-th delta of a shard in run mode a
// table delta, so the reduction keeps being measured from exact group
// counts and the shard leaves run mode when the key space narrows.
const tableEvery = 16

// shard is one writer: a goroutine draining a bounded batch queue into a
// private delta, sealing it into the shared view when it reaches the
// threshold. Only the shard goroutine touches cur, seed and runs.
type shard struct {
	s   *Stream
	ch  chan batch
	cur *delta

	// seed[q] is the group count partition q reached in the shard's last
	// sealed table delta: the next table delta's partition starts at that
	// size instead of rehashing its way back up (nil before the first
	// seal).
	seed []int

	// runs is the number of run deltas the shard begins before its next
	// table delta: tableEvery-1 after a table delta that cut its rows by
	// less than runCutoff, else 0 (the first delta is a table).
	runs int
}

func (sh *shard) run() {
	defer sh.s.shardWG.Done()
	for b := range sh.ch {
		if hook := sh.s.cfg.testBatchHook; hook != nil {
			hook()
		}
		if b.ack != nil {
			sh.seal()
			b.ack <- struct{}{}
			continue
		}
		sh.absorb(b)
		if sh.cur.rows >= uint64(sh.s.cfg.SealRows) {
			sh.seal()
		}
	}
	sh.seal() // Close: publish whatever is left
}

// newDelta starts the shard's next delta, choosing its kind from what
// the last table delta measured. Past maxDeltaBits every delta is a run.
func (sh *shard) newDelta() *delta {
	switch {
	case sh.s.cfg.MergeBits > maxDeltaBits:
		return &delta{}
	case sh.runs > 0:
		sh.runs--
		return &delta{}
	}
	return &delta{src: agg.Source{Parts: make([]agg.Table, 1<<sh.s.cfg.MergeBits)}, ar: arena.New()}
}

// absorb takes one batch into the current delta: a table delta routes its
// rows into its partitions, a run delta keeps its columns for the seal,
// and on durable streams either keeps them for its WAL record.
func (sh *shard) absorb(b batch) {
	if sh.cur == nil {
		sh.cur = sh.newDelta()
	}
	d := sh.cur
	if d.src.Parts != nil {
		agg.AbsorbParts(d.src.Parts, d.ar, sh.seed, b.keys, b.vals, sh.s.cfg.Holistic)
	}
	d.rows += uint64(len(b.keys))
	if d.src.Parts == nil || sh.s.dur != nil {
		d.keys = append(d.keys, b.keys)
		d.vals = append(d.vals, b.vals)
	}
}

// seal freezes the current delta and publishes it into the queryable view.
// From here on the delta is immutable: the shard starts a fresh one and the
// merger/snapshots only read the sealed state. A run delta is scattered
// here; a table delta records its partitions' group counts as the next
// table delta's seed and sets the shard's mode from its reduction.
func (sh *shard) seal() {
	if sh.cur == nil || sh.cur.rows == 0 {
		return
	}
	d := sh.cur
	sh.cur = nil
	if d.src.Parts == nil {
		d.src.Rows = agg.ScatterRows(d.keys, d.vals, sh.s.cfg.MergeBits, 1)
		sh.s.m.runSeals.Inc()
	} else {
		if sh.seed == nil {
			sh.seed = make([]int, len(d.src.Parts))
		}
		groups := 0
		for q, t := range d.src.Parts {
			sh.seed[q] = t.Len()
			groups += t.Len()
		}
		sh.runs = 0
		if d.rows < runCutoff*uint64(groups) {
			sh.runs = tableEvery - 1
		}
	}
	sh.s.m.seals.Inc()
	sh.s.publish(d)
}
