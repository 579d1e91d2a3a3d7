package stream

import "memagg/internal/agg"

// delta is one shard's in-progress (then sealed) table plus its row count.
// On durable streams it also mirrors the raw rows (keys/vals, in arrival
// order): the seal's WAL record carries rows, not aggregate state, so a
// replay rebuilds the exact delta. publish drops the mirror once the
// record is in the log.
type delta struct {
	agg.Table
	rows       uint64
	keys, vals []uint64
}

// deltaTableCap seeds a fresh delta's table when the stream has no
// cardinality estimate; LinearProbe doubles as groups arrive, so a
// low-cardinality delta stays tiny while a high-cardinality one amortizes
// its growth. With Config.EstimatedGroups set, deltaSeed sizes the table
// up front instead — a high-cardinality delta otherwise pays ~log2(groups/
// 1024) rehash passes before its first seal (BenchmarkStreamIngest
// documents the before/after).
const deltaTableCap = 1 << 10

// deltaSeed returns the capacity a fresh delta table is created with:
// the configured estimate, capped by SealRows (a delta cannot hold more
// groups than rows before it seals).
func (sh *shard) deltaSeed() int {
	est := sh.s.cfg.EstimatedGroups
	if est <= 0 {
		return deltaTableCap
	}
	if est > sh.s.cfg.SealRows {
		est = sh.s.cfg.SealRows
	}
	if est < deltaTableCap {
		return deltaTableCap
	}
	return est
}

// shard is one writer: a goroutine draining a bounded batch queue into a
// private delta, sealing it into the shared view when it reaches the
// threshold. Only the shard goroutine touches cur.
type shard struct {
	s   *Stream
	ch  chan batch
	cur *delta
	// spareKeys/spareVals are the previous delta's raw-row mirror arrays,
	// handed back by publish once the WAL record is written; the next
	// delta appends into them instead of growing fresh slices.
	spareKeys, spareVals []uint64
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
		sh.s.recycleBatch(b) // absorbed: the backing memory is free to reuse
		if sh.cur.rows >= uint64(sh.s.cfg.SealRows) {
			sh.seal()
		}
	}
	sh.seal() // Close: publish whatever is left
}

// absorb folds one batch into the current delta via the shared absorb
// kernel, and mirrors the raw rows on durable streams.
func (sh *shard) absorb(b batch) {
	if sh.cur == nil {
		sh.cur = &delta{Table: agg.NewTable(sh.deltaSeed())}
		if sh.s.dur != nil {
			sh.cur.keys, sh.cur.vals = sh.spareKeys[:0], sh.spareVals[:0]
			sh.spareKeys, sh.spareVals = nil, nil
		}
	}
	agg.AbsorbRows(sh.cur.Table, b.keys, b.vals, sh.s.cfg.Holistic)
	sh.cur.rows += uint64(len(b.keys))
	if sh.s.dur != nil {
		sh.cur.keys = append(sh.cur.keys, b.keys...)
		sh.cur.vals = append(sh.cur.vals, b.vals...)
	}
}

// seal freezes the current delta and publishes it into the queryable view.
// From here on the delta is immutable: the shard starts a fresh one and the
// merger/snapshots only read the sealed state.
func (sh *shard) seal() {
	if sh.cur == nil || sh.cur.rows == 0 {
		return
	}
	d := sh.cur
	sh.cur = nil
	sh.s.m.seals.Inc()
	sh.spareKeys, sh.spareVals = sh.s.publish(d)
}
