package memagg

import (
	"memagg/internal/agg"
	"memagg/internal/arena"
	"memagg/internal/obs"
)

// PhaseStat is one engine×phase row of the recorded phase metrics: how
// often the phase ran and its summed duration. Phases follow the paper's
// Section 3 conventions — build (folding records into the structure),
// merge (combining per-worker state, where the design has any), iterate
// (reading the result out).
type PhaseStat = agg.PhaseStat

// ArenaStats reports the allocation layer (Dimension 6): how much chunk
// memory the arenas pulled from the heap versus how often a reset recycled
// it for free.
type ArenaStats = arena.Stats

// ProcessStats is the process-wide observability report: every engine
// phase series recorded so far plus the arena accounting. The same numbers
// serve in Prometheus form on cmd/aggserve's /metrics.
type ProcessStats struct {
	// TimingDisabled reports whether the timing instruments are off
	// (counters still record; see the obs overhead guard).
	TimingDisabled bool
	EnginePhases   []PhaseStat
	Arena          ArenaStats
}

// Stats returns the process-wide observability report.
func Stats() ProcessStats {
	return ProcessStats{
		TimingDisabled: obs.Disabled(),
		EnginePhases:   agg.PhaseStats(),
		Arena:          arena.ReadStats(),
	}
}

// BackendStats is one Aggregator's slice of the phase metrics: the series
// recorded for its engine, across every Aggregator sharing that backend
// (phase metrics are per engine name, process-wide).
type BackendStats struct {
	Backend Backend
	Phases  []PhaseStat
}

// Stats reports the recorded phase timings for this aggregator's engine.
func (a *Aggregator) Stats() BackendStats {
	name := a.engine.Name()
	st := BackendStats{Backend: a.backend}
	for _, p := range agg.PhaseStats() {
		if p.Engine == name {
			st.Phases = append(st.Phases, p)
		}
	}
	return st
}

// HistogramBucket is one bucket of a latency distribution: the count of
// observations at or below UpperNanos (non-cumulative; UpperNanos -1 is
// the overflow bucket).
type HistogramBucket struct {
	UpperNanos int64
	Count      uint64
}

// LatencyStats is a typed copy of one latency histogram: observation count,
// summed nanoseconds, and the non-empty buckets.
type LatencyStats struct {
	Count      uint64
	TotalNanos uint64
	Buckets    []HistogramBucket
}

func toLatency(s obs.HistogramSnapshot) LatencyStats {
	out := LatencyStats{Count: s.Count, TotalNanos: s.SumNano}
	for i, c := range s.Buckets {
		if c > 0 {
			out.Buckets = append(out.Buckets, HistogramBucket{UpperNanos: obs.BucketBound(i), Count: c})
		}
	}
	return out
}

// StreamMetrics is a Stream's full observability report: the counter-level
// Stats plus the ingest and merge latency distributions — the typed form
// of what the stream's /metrics families serve.
type StreamMetrics struct {
	StreamStats

	// AppendLatency distributes AppendChunk call durations (copy, hand-off, any
	// backpressure wait); MergeLatency distributes merge-cycle durations.
	// Both are empty while timing is disabled (obs.SetDisabled); the
	// counters in StreamStats record regardless.
	AppendLatency LatencyStats
	MergeLatency  LatencyStats
}

// Metrics reports the stream's counters and latency distributions. Safe
// from any goroutine.
func (s *Stream) Metrics() StreamMetrics {
	return StreamMetrics{
		StreamStats:   s.Stats(),
		AppendLatency: toLatency(s.s.AppendLatency()),
		MergeLatency:  toLatency(s.s.MergeLatency()),
	}
}
