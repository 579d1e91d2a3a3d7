package agg

import (
	"runtime"

	"memagg/internal/hashtbl"
)

func defaultWorkers() int { return runtime.GOMAXPROCS(0) }

// adaptiveEngine is the hybrid sort/hash operator the paper's Section 5.5
// suggests revisiting (in the spirit of Müller et al., "Cache-efficient
// aggregation: hashing is sorting"): it samples a prefix of the input,
// estimates the group-by cardinality ratio, and routes each query to the
// algorithm the paper's experiments favour for that regime —
//
//   - distributive vector queries: Hash_LP at low cardinality,
//     Spreadsort once the estimated distinct ratio crosses the threshold
//     (where sorting's locality advantage takes over, Figures 4/7);
//   - holistic queries: always sort-based (Figure 5 — unconditional);
//   - scalar median and range queries: sort-based (hash cannot order).
//
// Unlike Müller's operator it does not switch mid-run; the sample decides
// up front, which keeps holistic queries exact (their operator cannot run
// holistic functions at all because it chunks the input).
type adaptiveEngine struct {
	hash Engine
	sort Engine
	// sampleSize is the number of leading records inspected.
	sampleSize int
	// threshold is the distinct-ratio above which sorting is chosen.
	threshold float64
}

// Adaptive returns the hybrid engine ("Adaptive") with the default sample
// of 64Ki records and a 0.5 distinct-ratio threshold.
func Adaptive() Engine {
	return &adaptiveEngine{
		hash:       HashLP(),
		sort:       Spreadsort(),
		sampleSize: 1 << 16,
		threshold:  0.5,
	}
}

func (e *adaptiveEngine) Name() string       { return "Adaptive" }
func (e *adaptiveEngine) Category() Category { return Hybrid }

// choose estimates the distinct ratio of the sample and picks the engine.
func (e *adaptiveEngine) choose(keys []uint64) Engine {
	n := len(keys)
	if n == 0 {
		return e.hash
	}
	sample := n
	if sample > e.sampleSize {
		sample = e.sampleSize
	}
	seen := hashtbl.NewLinearProbe[struct{}](sample)
	for _, k := range keys[:sample] {
		seen.Upsert(k)
	}
	ratio := float64(seen.Len()) / float64(sample)
	if ratio > e.threshold {
		return e.sort
	}
	return e.hash
}

func (e *adaptiveEngine) VectorCount(keys []uint64) []GroupCount {
	return e.choose(keys).VectorCount(keys)
}

// countQ1 hands c to the engine the sample routes to, so the phases land
// in that engine's series, as VectorCount records them.
func (e *adaptiveEngine) countQ1(keys []uint64, c *phaseClock) []GroupCount {
	return e.choose(keys).(q1Body).countQ1(keys, c)
}

func (e *adaptiveEngine) VectorAvg(keys, vals []uint64) []GroupFloat {
	return e.choose(keys).VectorAvg(keys, vals)
}

func (e *adaptiveEngine) VectorMedian(keys, vals []uint64) []GroupFloat {
	return e.sort.VectorMedian(keys, vals)
}

func (e *adaptiveEngine) VectorReduce(keys, vals []uint64, op ReduceOp) []GroupUint {
	return AsReducer(e.choose(keys)).VectorReduce(keys, vals, op)
}

func (e *adaptiveEngine) VectorHolistic(keys, vals []uint64, fn HolisticFunc) []GroupFloat {
	return AsReducer(e.sort).VectorHolistic(keys, vals, fn)
}

func (e *adaptiveEngine) ScalarMedian(keys []uint64) (float64, error) {
	return e.sort.ScalarMedian(keys)
}

func (e *adaptiveEngine) VectorCountRange(keys []uint64, lo, hi uint64) ([]GroupCount, error) {
	return e.sort.VectorCountRange(keys, lo, hi)
}
