package harness

import (
	"fmt"
	"net/http/httptest"
	"sync"
	"time"

	"memagg/internal/agg"
	"memagg/internal/cluster"
	"memagg/internal/dataset"
	"memagg/internal/stream"
)

// clusterNodes spins up n in-process worker nodes — a full stream behind
// cluster.NodeHandler over a loopback HTTP server each — plus a router
// over them, and returns a teardown. In-process nodes keep the sweep
// self-contained; the protocol is byte-identical to separate aggserve
// processes, so only the network hop is idealized (loopback).
func clusterNodes(n int, cfg stream.Config) (*cluster.Router, func(), error) {
	streams := make([]*stream.Stream, n)
	servers := make([]*httptest.Server, n)
	peers := make([]string, n)
	for i := range streams {
		streams[i] = stream.New(cfg)
		servers[i] = httptest.NewServer(cluster.NodeHandler(streams[i]))
		peers[i] = servers[i].URL
	}
	teardown := func() {
		for i := range streams {
			servers[i].Close()
			streams[i].Close()
		}
	}
	rt, err := cluster.NewRouter(cluster.Config{Peers: peers})
	if err != nil {
		teardown()
		return nil, nil, err
	}
	return rt, teardown, nil
}

// routerIngest pushes the dataset through the router with a few
// concurrent producers (the router shards each batch by key hash and
// ships sub-batches to their owners in parallel), then flushes — the
// same shape as walIngest, one protocol layer up.
func routerIngest(rt *cluster.Router, keys, vals []uint64) (time.Duration, error) {
	const batchLen = 4096
	const producers = 4
	start := time.Now()
	offsets := make(chan int)
	errs := make([]error, producers)
	var wg sync.WaitGroup
	for w := 0; w < producers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range offsets {
				j := i + batchLen
				if j > len(keys) {
					j = len(keys)
				}
				if err := rt.Ingest(keys[i:j], vals[i:j]); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	for i := 0; i < len(keys); i += batchLen {
		offsets <- i
	}
	close(offsets)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	if err := rt.Flush(); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

// ExtCluster measures the clustered serving tier: ingest throughput
// through the sharding router and scatter-gather query latency, swept
// over node counts and cardinalities. Everything runs on one machine
// over loopback, so the sweep prices the distribution overhead (JSON
// ingest hops, partial-set transfer, router-side merge) rather than
// demonstrating speedup — the numbers to read are the deltas from the
// nodes=1 row, and rows_ok, which pins exactness (the gathered Q4 must
// equal the rows ingested). Cross-machine scaling is where the ROADMAP's
// distributed tier goes next.
func ExtCluster(cfg Config) error {
	warm()
	low, high := cfg.lowHighCards()
	fmt.Fprintln(cfg.Out, "clustered serving over in-process loopback nodes (single machine:")
	fmt.Fprintln(cfg.Out, "read overhead vs nodes=1, not scaling; holistic=off for the sweep)")
	tw := newTable(cfg.Out, "nodes", "groups", "ingest_ms", "mrows_s", "gather_q1_ms", "rows_ok")
	for _, nodes := range []int{1, 2, 3} {
		for _, card := range []int{low, high} {
			keys := keysFor(cfg, dataset.RseqShf, card)
			vals := dataset.Values(len(keys), cfg.Seed)
			rt, teardown, err := clusterNodes(nodes, stream.Config{Shards: 2, SealRows: 1 << 14})
			if err != nil {
				return err
			}
			elapsed, err := routerIngest(rt, keys, vals)
			if err != nil {
				teardown()
				return err
			}
			// Gather + Q1 latency: the full scatter (every node's partial
			// set over HTTP), router-side merge, and the sorted vector
			// kernel. Min of 3 — the steady-state a dashboard would see.
			var m *cluster.Merged
			gather := time.Duration(1 << 62)
			for r := 0; r < 3; r++ {
				el := timeIt(func() {
					var gerr error
					if m, gerr = rt.Gather(); gerr != nil {
						err = gerr
						return
					}
					_, gerr = m.Run(agg.Query{ID: agg.QCountByKey})
					err = gerr
				})
				if err != nil {
					teardown()
					return err
				}
				if el < gather {
					gather = el
				}
			}
			rowsOK := m.Watermark.Total() == uint64(len(keys)) && len(m.Watermark) == nodes
			teardown()
			fmt.Fprintf(tw, "%d\t%d\t%s\t%s\t%s\t%v\n",
				nodes, card, ms(elapsed), mrows(len(keys), elapsed), ms(gather), rowsOK)
		}
	}
	return tw.Flush()
}
