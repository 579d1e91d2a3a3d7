package cluster

import (
	"memagg/internal/obs"
)

// metrics is the router's per-instance instrumentation: one family per
// concern, peer-labelled series materialized on first use. Lives in the
// router's own obs.Registry so two routers in one process (tests) never
// share a counter — the Stream's convention.
type metrics struct {
	reg *obs.Registry

	requests  *obs.CounterVec   // cluster_peer_requests_total{peer,op}
	errors    *obs.CounterVec   // cluster_peer_errors_total{peer,op}
	retries   *obs.CounterVec   // cluster_peer_retries_total{peer}
	latency   *obs.HistogramVec // cluster_peer_request_nanos{peer}
	brkState  *obs.GaugeVec     // cluster_breaker_state{peer}
	brkTrips  *obs.CounterVec   // cluster_breaker_trips_total{peer}
	rows      *obs.Counter      // cluster_ingest_rows_total
	batches   *obs.Counter      // cluster_ingest_batches_total
	queries   *obs.Counter      // cluster_gather_total
	queryErrs *obs.Counter      // cluster_gather_errors_total
}

func newMetrics() *metrics {
	reg := obs.NewRegistry()
	return &metrics{
		reg: reg,
		requests: reg.NewCounterVec("cluster_peer_requests_total",
			"Requests issued to a peer, by operation.", "peer", "op"),
		errors: reg.NewCounterVec("cluster_peer_errors_total",
			"Requests to a peer that failed after retries, by operation.", "peer", "op"),
		retries: reg.NewCounterVec("cluster_peer_retries_total",
			"Retry attempts against a peer (transient failures).", "peer"),
		latency: reg.NewHistogramVec("cluster_peer_request_nanos",
			"Latency of successful peer requests.", "peer"),
		brkState: reg.NewGaugeVec("cluster_breaker_state",
			"Circuit breaker state per peer: 0 closed, 1 open, 2 half-open.", "peer"),
		brkTrips: reg.NewCounterVec("cluster_breaker_trips_total",
			"Times a peer's circuit breaker tripped open.", "peer"),
		rows: reg.NewCounter("cluster_ingest_rows_total",
			"Rows the router accepted and sharded to peers."),
		batches: reg.NewCounter("cluster_ingest_batches_total",
			"Per-peer sub-batches the router shipped."),
		queries: reg.NewCounter("cluster_gather_total",
			"Scatter-gather query fan-outs started."),
		queryErrs: reg.NewCounter("cluster_gather_errors_total",
			"Scatter-gathers that failed (partial availability or decode)."),
	}
}
