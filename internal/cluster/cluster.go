// Package cluster is the multi-node serving mode: a router that shards
// ingest across N worker nodes and answers queries by scatter-gathering
// partial aggregates — with results bit-identical to a single-node stream
// over the same rows.
//
// The design composes three mechanisms the repo already proved in
// isolation, which is exactly why distribution is correct for free here:
//
//   - Routing (internal/chash.Ring). Every row is routed by its group
//     key's consistent hash, so each node owns a disjoint slice of the
//     group space. Consistent hashing bounds rebalancing: growing N to
//     N+1 moves ~1/(N+1) of the keys (TestRingMovementOnAdd), the
//     property the ROADMAP's WAL-shipping failover will lean on.
//
//   - Exact merging (agg.Partial). A query gathers each node's partials
//     for its owned groups and folds them with Partial.Merge — exact for
//     every distributive ReduceOp, algebraic avg, and (because holistic
//     functions are order-insensitive over the merged multiset) exact for
//     Q3/Q5–Q7 holistics too. Key-disjoint routing makes the merge a
//     concatenation in the common case, but the merge is *correct* even
//     when a group transiently has state on two nodes (mid-rebalance), so
//     correctness never depends on routing history.
//
//   - Watermark composition (the WAL's LSN discipline). Each node's
//     snapshot watermark counts the rows it has made visible; the router
//     composes the per-node watermarks into a cluster watermark — the
//     full vector (with the nodes' incarnation ids) for the entity tag,
//     the minimum as the summary bound.
//     Because nodes own disjoint keys, any combination of per-node
//     snapshots is a consistent cluster state (each group's result
//     reflects an exact prefix of its node's ingest), so scatter-gather
//     needs no cross-node coordination to be consistent.
//
// The wire format is a header frame plus the snapshot's tables as one agg
// group run — the record format, chunker and decoder the checkpoint
// subsystem and view pane snapshots use on disk, pointed at a socket —
// every frame the WAL's self-validating length + CRC32C + payload.
//
// Failure handling: every peer has a bounded in-flight window, transient
// errors retry with exponential backoff, and consecutive failures trip a
// per-peer circuit breaker. A tripped peer makes the router answer with
// typed partial-availability errors — the cluster-level analog of the
// stream's sticky read-only degradation: fail fast and explicitly, never
// hang, never serve silently wrong (partial) results.
package cluster

import (
	"errors"
	"fmt"
	"strings"
)

// IncarnationHeader names the /v1/partials response header carrying the
// serving process's incarnation id: minted once per process, so it changes
// whenever a peer restarts. The router folds it into its entity tags (see
// Merged.ETag).
const IncarnationHeader = "X-Memagg-Incarnation"

// ErrPeerUnavailable marks a peer the router cannot currently reach:
// its circuit breaker is open, or every retry of a request failed.
// Errors returned by IngestChunk, Flush, and Gather wrap it.
var ErrPeerUnavailable = errors.New("cluster: peer unavailable")

// PeerError reports a failed operation against one peer, wrapping
// ErrPeerUnavailable plus the underlying transport or status error.
type PeerError struct {
	Peer string // base URL
	Op   string // "ingest", "flush", "partials", "readyz"
	Err  error
}

func (e *PeerError) Error() string {
	return fmt.Sprintf("cluster: %s on %s: %v", e.Op, e.Peer, e.Err)
}

func (e *PeerError) Unwrap() error { return ErrPeerUnavailable }

// PartialAvailabilityError reports a scatter-gather that could not reach
// every node: exact cluster results need all owners, so the query fails
// as a whole, naming the missing peers. Wraps ErrPeerUnavailable.
type PartialAvailabilityError struct {
	Missing []string // unreachable peer base URLs
	Errs    []error  // one per missing peer
}

func (e *PartialAvailabilityError) Error() string {
	return fmt.Sprintf("cluster: partial availability: %d peer(s) unreachable (%s)",
		len(e.Missing), strings.Join(e.Missing, ", "))
}

func (e *PartialAvailabilityError) Unwrap() error { return ErrPeerUnavailable }

// Watermark is the composed cluster watermark: element i is node i's
// snapshot watermark (rows that node has made visible), in membership
// order. Because nodes own disjoint group-key slices, any vector of
// per-node watermarks describes one consistent cluster state.
type Watermark []uint64

// Total returns the total row count across the cluster — the cluster
// analog of a single stream's watermark (and of Q4).
func (w Watermark) Total() uint64 {
	var t uint64
	for _, v := range w {
		t += v
	}
	return t
}

// Min returns the minimum per-node watermark — the "every node has made
// at least this many of its rows visible" summary bound.
func (w Watermark) Min() uint64 {
	if len(w) == 0 {
		return 0
	}
	m := w[0]
	for _, v := range w[1:] {
		if v < m {
			m = v
		}
	}
	return m
}
