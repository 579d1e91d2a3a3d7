package agg

import (
	"math/bits"

	"memagg/internal/hashtbl"
	"memagg/internal/morsel"
	"memagg/internal/radix"
)

// radixEngine is the radix-partitioned parallel aggregation engine
// ("Hash_RX"): the third classic parallel design point next to the shared
// structures of Table 8 (Hash_LC, Hash_TBBSC) and the private-table PLAT
// scheme (plat.go).
//
// Phase 1 partitions the input by hash radix into P = 2^bits partitions
// (ScatterRows over internal/radix: per-worker write-combining buffers
// keep the scatter sequential-write friendly). Phase 2 hands whole
// partitions to workers; each runs Hash_LP's build and emit (the table
// engine, hasheng.go) over its partition, in a cache-sized table.
// Because every occurrence of a key lands in exactly one
// partition there is nothing to merge and nothing to lock — which also
// means holistic queries (Q3) work naturally, unlike the classic
// partitioned schemes the paper rules out for holistic functions.
//
// The trade against the other designs: Hash_RX pays an extra full pass
// over the data (the partitioning scatter) to buy phase-2 tables that fit
// in cache. At low group-by cardinality the local tables of Hash_PLAT are
// already cache-resident and the extra pass is pure overhead; at high
// cardinality PLAT's p overlapping tables overflow cache and its merge
// re-scans every one of them, while Hash_RX keeps working on small
// disjoint tables — the crossover the radix-aggregation literature
// predicts, measurable with `aggbench -exp rx`.
type radixEngine struct {
	pool
	unordered
	// lp is the table each partition builds and emits through: Hash_RX is
	// the radix scatter plus Hash_LP per partition. It carries the
	// allocator.
	lp tableEngine
}

// HashRX returns the radix-partitioned parallel engine ("Hash_RX")
// building with the given number of goroutines (<= 0 uses GOMAXPROCS).
func HashRX(threads int) Engine {
	return &radixEngine{pool: pool{threads}, lp: *hashLP()}
}

func (e *radixEngine) Name() string       { return "Hash_RX" }
func (e *radixEngine) Category() Category { return HashBased }

const (
	// rxSerialCutoff is the input size below which the two-pass schedule
	// cannot recoup the partitioning scatter and a single serial table
	// build runs instead.
	rxSerialCutoff = 1 << 15

	// rxSampleSize is the input prefix inspected by the cardinality
	// estimate (same scale as the Adaptive engine's sample).
	rxSampleSize = 1 << 15

	// rxTableBudget is the target phase-2 table footprint in bytes:
	// L2-sized, so each partition's build stays cache-resident — the whole
	// point of partitioning first.
	rxTableBudget = 1 << 18

	// rxSlotBytes approximates one occupied table slot (8-byte key +
	// 8-byte aggregate state) for the footprint estimate.
	rxSlotBytes = 16

	// rxMinBits keeps enough partitions for phase-2 load balancing even
	// when the estimated cardinality is tiny.
	rxMinBits = 4
)

// estimateGroups guesses the group-by cardinality from a prefix sample,
// reusing the sizeHint philosophy (Section 3.2: cardinality is unknown up
// front). A saturated sample — few distinct keys — indicates a small key
// domain; otherwise the distinct ratio is scaled to the full input.
func estimateGroups(keys []uint64) int {
	n := len(keys)
	if n == 0 {
		return 0
	}
	s := n
	if s > rxSampleSize {
		s = rxSampleSize
	}
	seen := hashtbl.NewLinearProbe[struct{}](s)
	for _, k := range keys[:s] {
		seen.Upsert(k)
	}
	d := seen.Len()
	if s == n {
		return d
	}
	if d < s/2 {
		// The sample repeats keys heavily: the domain is close to d.
		return 2 * d
	}
	return int(float64(n) * float64(d) / float64(s))
}

// chooseBits picks the radix fan-out so each phase-2 table lands near the
// cache budget, with at least enough partitions to keep every worker busy
// (4 per worker for load balancing under skew), clamped to the
// partitioner's limits.
func chooseBits(n, workers, estGroups int) int {
	perTable := rxTableBudget / rxSlotBytes // target groups per partition
	p := hashtbl.NextPow2((estGroups + perTable - 1) / perTable)
	b := bits.Len(uint(p)) - 1
	if minP := hashtbl.NextPow2(4 * workers); p < minP {
		b = bits.Len(uint(minP)) - 1
	}
	if b < rxMinBits {
		b = rxMinBits
	}
	if b > radix.MaxBits {
		b = radix.MaxBits
	}
	// Never fan out so far that average partitions get trivially small.
	for b > rxMinBits && n>>uint(b) < 1024 {
		b--
	}
	return b
}

// rxRun is the generic two-phase schedule shared by every query class,
// marking its phases on c. buildPart aggregates one partition with Hash_LP
// (whole keys live in exactly one partition, so the results concatenate
// without a merge); partitions are handed to workers from one cursor
// (morsel.Parts), so a heavy-hitter partition occupies one worker while
// the rest drain the queue. Small inputs and single-thread configurations
// take the serial fallback: buildPart over the whole input as one
// partition, which keeps both code paths behaviourally identical.
func rxRun[R any](e *radixEngine, keys, vals []uint64, c *phaseClock, buildPart func(pkeys, pvals []uint64) []R) []R {
	c.start(e.Name())
	workers := e.workers()
	if len(keys) < rxSerialCutoff || workers == 1 {
		// The serial fallback fuses build and emit inside buildPart; the
		// whole duration is recorded as build, and CountPhases reports
		// the run as fused (ok false).
		out := buildPart(keys, vals)
		c.built()
		return out
	}
	var vs [][]uint64
	if vals != nil {
		vs = [][]uint64{vals}
	}
	rows := ScatterRows([][]uint64{keys}, vs, chooseBits(len(keys), workers, estimateGroups(keys)), workers)
	bits := rows.bits()
	parts := make(Result[R], 1<<bits)
	morsel.Parts(len(parts), workers, func(_, q int) {
		lo, hi := rows.span(q, bits)
		if lo == hi {
			return
		}
		var pv []uint64
		if rows.Vals != nil {
			pv = rows.Vals[lo:hi]
		}
		parts[q] = buildPart(rows.Keys[lo:hi], pv)
	})
	// build covers the radix scatter plus the per-partition table builds
	// (and their row emission, which buildPart fuses); iterate is the
	// final partition concatenation. Hash_RX has no merge phase —
	// partitions are key-disjoint by construction.
	c.built()
	out := parts.Merge()
	c.iterated()
	return out
}

func (e *radixEngine) VectorCount(keys []uint64) []GroupCount {
	return e.countQ1(keys, &phaseClock{})
}

func (e *radixEngine) countQ1(keys []uint64, c *phaseClock) []GroupCount {
	return rxRun(e, keys, nil, c, func(pkeys, _ []uint64) []GroupCount {
		return e.lp.count(pkeys, nil)
	})
}

func (e *radixEngine) VectorAvg(keys, vals []uint64) []GroupFloat {
	return rxRun(e, keys, vals, &phaseClock{}, e.lp.VectorAvg)
}

func (e *radixEngine) VectorMedian(keys, vals []uint64) []GroupFloat {
	return e.VectorHolistic(keys, vals, MedianFunc)
}

// VectorHolistic buffers each group's values inside its partition — a key
// never spans partitions, so the buffered list is already complete when
// the partition finishes and no cross-table concatenation is needed.
//
// Under AllocArena each partition build borrows a private arena from the
// shared pool (the per-worker shards: at most `workers` arenas are live at
// once, and the pool recycles them from partition to partition and from
// query to query).
func (e *radixEngine) VectorHolistic(keys, vals []uint64, fn HolisticFunc) []GroupFloat {
	return rxRun(e, keys, vals, &phaseClock{}, func(pkeys, pvals []uint64) []GroupFloat {
		return e.lp.holistic(pkeys, pvals, fn, nil)
	})
}

func (e *radixEngine) VectorReduce(keys, vals []uint64, op ReduceOp) []GroupUint {
	return rxRun(e, keys, vals, &phaseClock{}, func(pkeys, pvals []uint64) []GroupUint {
		return e.lp.reduce(pkeys, pvals, op, nil)
	})
}
