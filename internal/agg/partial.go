package agg

import "memagg/internal/arena"

// Partial is one group's mergeable partial aggregate — the unit of state the
// streaming subsystem (internal/stream) maintains per group in its delta
// tables and base generations. It carries every distributive fold of the
// ReduceOp set eagerly (count, sum, min, max — and avg algebraically, as
// sum/count), plus an optional arena-backed value list for the holistic
// functions, which cannot be folded incrementally and must see each group's
// full value multiset.
//
// The decomposition rule (Section 2 of the paper): distributive and
// algebraic aggregates of a union of row sets equal a cheap combination of
// the aggregates of the parts. Merge implements exactly that combination,
// which is what lets per-shard deltas and immutable base generations be
// built independently and folded together later without revisiting rows.
//
// The zero Partial is the empty group. A Partial is a plain value; the
// buffered values live in the arena passed to Buffer, so copying the struct
// is cheap and the owning arena must outlive it.
type Partial struct {
	count uint64
	sum   uint64
	min   uint64
	max   uint64
	seen  bool
	vals  arena.List
}

// Observe folds one record's value into the eager states: count, sum, min,
// max all advance (avg follows as sum/count).
func (p *Partial) Observe(v uint64) {
	if !p.seen {
		p.min, p.max = v, v
		p.seen = true
	} else {
		if v < p.min {
			p.min = v
		}
		if v > p.max {
			p.max = v
		}
	}
	p.count++
	p.sum += v
}

// Buffer retains v in the group's holistic value list, allocated from ar.
// Callers that serve holistic queries call both Observe and Buffer per
// record; distributive-only tables skip Buffer and carry no list at all.
func (p *Partial) Buffer(ar *arena.Arena, v uint64) {
	ar.Append(&p.vals, v)
}

// Merge folds another partial's eager states into p — the distributive
// merge for every ReduceOp (COUNT and SUM add, MIN and MAX compare) plus
// the algebraic avg parts. Value lists are not touched; use MergeValues.
func (p *Partial) Merge(o *Partial) {
	if !o.seen {
		return
	}
	if !p.seen {
		p.min, p.max = o.min, o.max
		p.seen = true
	} else {
		if o.min < p.min {
			p.min = o.min
		}
		if o.max > p.max {
			p.max = o.max
		}
	}
	p.count += o.count
	p.sum += o.sum
}

// MergeValues appends o's buffered values (living in src) to p's value
// list (living in dst). A list's blocks are chained by in-arena indices, so
// values can only be carried across arenas by appending — this is the copy
// the streaming merger pays to keep each generation's state in one arena.
func (p *Partial) MergeValues(dst *arena.Arena, o *Partial, src *arena.Arena) {
	src.Each(o.vals, func(v uint64) { dst.Append(&p.vals, v) })
}

// Count returns the group's record count.
func (p *Partial) Count() uint64 { return p.count }

// Sum returns the group's value sum.
func (p *Partial) Sum() uint64 { return p.sum }

// Min returns the group's minimum value; ok is false for the empty group.
func (p *Partial) Min() (uint64, bool) { return p.min, p.seen }

// Max returns the group's maximum value; ok is false for the empty group.
func (p *Partial) Max() (uint64, bool) { return p.max, p.seen }

// Avg returns the group's mean value, 0 for the empty group.
func (p *Partial) Avg() float64 {
	if p.count == 0 {
		return 0
	}
	return float64(p.sum) / float64(p.count)
}

// Reduce reads the eager state selected by op — the readout matching
// VectorReduce's per-group value for each ReduceOp.
func (p *Partial) Reduce(op ReduceOp) uint64 {
	switch op {
	case OpCount:
		return p.count
	case OpSum:
		return p.sum
	case OpMin:
		return p.min
	case OpMax:
		return p.max
	default:
		return 0
	}
}

// Buffered returns the number of values retained by Buffer.
func (p *Partial) Buffered() int { return p.vals.Len() }

// AppendValues appends the buffered values to dst and returns the extended
// slice — the contiguous read-out the holistic functions need (they select
// in place). ar must be the arena the values were buffered into.
func (p *Partial) AppendValues(ar *arena.Arena, dst []uint64) []uint64 {
	return ar.AppendTo(dst, p.vals)
}
