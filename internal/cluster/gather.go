package cluster

import (
	"hash/fnv"
	"io"
	"runtime"
	"strconv"
	"strings"

	"memagg/internal/agg"
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

	// incarnations holds each peer's process incarnation id (the
	// IncarnationHeader value of its /v1/partials response), in peer order.
	incarnations []string

	// parts are key-disjoint: partition q holds the keys whose
	// radix.PartitionIndex is q.
	parts []agg.Table
}

// merge folds the decoded peer sets into one cluster state with
// agg.Fold, partition q of every set into partition q, in parallel. The
// decoded sets are the router's own and all sit at gatherBits, so the
// first peer's set is folded into in place. Routing keeps groups
// node-disjoint, so the fold is normally pure insertion; Partial.Merge
// keeps it exact even if a group ever has state on two nodes.
func merge(sets []*peerSet) *Merged {
	m := &Merged{
		Watermark:    make(Watermark, len(sets)),
		incarnations: make([]string, len(sets)),
		Holistic:     true,
	}
	srcs := make([]agg.Source, 0, len(sets)-1)
	for i, set := range sets {
		m.Watermark[i] = set.hdr.Watermark
		m.incarnations[i] = set.incarnation
		m.Holistic = m.Holistic && set.hdr.Holistic
		if i > 0 {
			srcs = append(srcs, agg.Source{Parts: set.parts})
		}
	}
	own := make([]bool, 1<<gatherBits)
	for q := range own {
		own[q] = true
	}
	m.parts, _ = agg.Fold(sets[0].parts, srcs, own, m.Holistic, runtime.GOMAXPROCS(0))
	return m
}

// ETag renders the state as an HTTP entity tag: "c<w0>.<w1>...-<ids>".
// While every peer process lives, the watermark vector fully determines
// every query result (per query URL) — the single-node watermark-as-ETag
// contract, lifted to the fleet. A peer's watermark can go back, though: a
// volatile peer restarts at 0, and WAL recovery truncates to the longest
// valid prefix, so one vector can stand for two different results over
// the router's lifetime. The tag therefore also folds in a hash of the
// peers' incarnation ids, and any peer restart changes it.
func (m *Merged) ETag() string {
	h := fnv.New64a()
	for _, id := range m.incarnations {
		io.WriteString(h, id)
		h.Write([]byte{0})
	}
	var b strings.Builder
	b.WriteString(`"c`)
	for i, v := range m.Watermark {
		if i > 0 {
			b.WriteByte('.')
		}
		b.WriteString(strconv.FormatUint(v, 10))
	}
	b.WriteByte('-')
	b.WriteString(strconv.FormatUint(h.Sum64(), 36))
	b.WriteByte('"')
	return b.String()
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
