package cluster

import (
	"runtime"

	"memagg/internal/agg"
	"memagg/internal/morsel"
)

// gatherBits is the radix fan-out a gather is partitioned by: every peer's
// records decode straight into 2^gatherBits key-disjoint tables, so the
// cross-peer merge and the query scans run partition-parallel like a
// snapshot's.
const gatherBits = 4

// Merged is one consistent cluster-wide aggregate state: every group's
// merged partial, tagged with the composed watermark vector it reflects.
// Run answers the paper's Q1–Q7 (plus reduce, quantile and mode) through
// agg.Run — the kernels a single stream's snapshots use — so results are
// exactly equal to a single stream that ingested every row: the
// distributive/algebraic cases by Partial.Merge, the holistic cases
// because median/quantile/mode are multiset functions, indifferent to the
// order the per-node value lists concatenate in.
type Merged struct {
	// Watermark is the composed cluster watermark this state reflects:
	// element i is peer i's snapshot watermark.
	Watermark Watermark

	// Holistic reports whether value multisets were retained on every
	// peer — the gate for the median/quantile/mode queries.
	Holistic bool

	// parts are key-disjoint: partition q holds the keys whose
	// radix.PartitionIndex is q.
	parts []agg.Table
}

// merge folds the decoded peer sets into one cluster state, partition by
// partition in parallel. Routing keeps groups node-disjoint, so the fold
// is normally pure insertion; agg.MergeTable keeps it exact even if a
// group ever has state on two nodes.
func merge(sets []*peerSet) *Merged {
	m := &Merged{Watermark: make(Watermark, len(sets)), Holistic: true, parts: sets[0].parts}
	for i, set := range sets {
		m.Watermark[i] = set.hdr.Watermark
		m.Holistic = m.Holistic && set.hdr.Holistic
	}
	morsel.Parts(len(m.parts), runtime.GOMAXPROCS(0), func(_, q int) {
		for _, set := range sets[1:] {
			switch src := set.parts[q]; {
			case src.T == nil:
			case m.parts[q].T == nil:
				m.parts[q] = src
			default:
				agg.MergeTable(m.parts[q], src, m.Holistic)
			}
		}
	})
	return m
}

// Groups returns the number of distinct keys across the cluster.
func (m *Merged) Groups() int { return agg.Groups(m.parts) }

// Run executes q over the cluster state; result types are agg.Run's.
// Vector results come back sorted ascending by key: gather order is peer
// order and hash order, so sorting is what makes the output deterministic
// (the tree-engine convention; single-node hash results are unordered and
// must be sorted for comparison anyway). Holistic queries answer
// agg.ErrUnsupported unless every peer retains value multisets.
func (m *Merged) Run(q agg.Query) (any, error) {
	v, err := agg.Run(m.parts, q, agg.RunEnv{
		Rows:     m.Watermark.Total(),
		Holistic: m.Holistic,
		Workers:  runtime.GOMAXPROCS(0),
	})
	if q.ID != agg.QRange { // q7 is already ascending
		agg.SortRows(v)
	}
	return v, err
}
