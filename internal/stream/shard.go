package stream

import (
	"memagg/internal/agg"
	"memagg/internal/arena"
)

// delta is one shard's in-progress (then sealed) state: a partition set
// at the stream's deltaBits, every partition's value lists in the one
// arena ar, plus its row count. Rows are routed to their partition as
// they are absorbed, so a merge folds delta partition q straight into
// base partition q, or, past maxDeltaBits, into the base partitions it
// covers. On durable streams it also keeps the columns of every
// batch it absorbed (keys/vals, one segment per batch, in arrival order):
// the seal's WAL record carries rows, not aggregate state, so a replay
// rebuilds the exact delta. logSeal writes the segments out and drops
// them.
type delta struct {
	parts      []agg.Table
	ar         *arena.Arena
	rows       uint64
	keys, vals [][]uint64
}

// newDelta returns an empty delta at fan-out 2^bits.
func newDelta(bits int) *delta {
	return &delta{parts: make([]agg.Table, 1<<bits), ar: arena.New()}
}

// shard is one writer: a goroutine draining a bounded batch queue into a
// private delta, sealing it into the shared view when it reaches the
// threshold. Only the shard goroutine touches cur and seed.
type shard struct {
	s   *Stream
	ch  chan batch
	cur *delta

	// seed[q] is the group count partition q reached in the shard's last
	// sealed delta: the next delta's partition starts at that size instead
	// of rehashing its way back up (nil before the first seal).
	seed []int
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

// absorb routes one batch into the current delta's partitions; on
// durable streams the delta also keeps the batch's columns for its WAL
// record.
func (sh *shard) absorb(b batch) {
	if sh.cur == nil {
		sh.cur = newDelta(sh.s.cfg.deltaBits())
	}
	agg.AbsorbParts(sh.cur.parts, sh.cur.ar, sh.seed, b.keys, b.vals, sh.s.cfg.Holistic)
	sh.cur.rows += uint64(len(b.keys))
	if sh.s.dur != nil {
		sh.cur.keys = append(sh.cur.keys, b.keys)
		sh.cur.vals = append(sh.cur.vals, b.vals)
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
	if sh.seed == nil {
		sh.seed = make([]int, len(d.parts))
	}
	for q, t := range d.parts {
		sh.seed[q] = t.Len()
	}
	sh.s.m.seals.Inc()
	sh.s.publish(d)
}
