package harness

import (
	"fmt"
	"runtime"
	"time"

	"memagg/internal/agg"
	"memagg/internal/dataset"
	"memagg/internal/stream"
)

// layeredQueryStream builds a deterministic snapshot-query subject: one
// writer shard fed serially with the merger disabled, the first rows
// explicitly compacted into a base generation and the last
// deltas×sealRows rows left as sealed deltas the first query must fold.
func layeredQueryStream(cfg stream.Config, keys, vals []uint64, deltas, sealRows int) (*stream.Stream, error) {
	cfg.Shards = 1
	cfg.SealRows = sealRows
	cfg.DisableMerger = true
	s := stream.New(cfg)
	baseRows := len(keys) - deltas*sealRows
	if baseRows < 0 {
		baseRows = 0
	}
	appendAll := func(lo, hi int) error {
		const batchLen = 4096
		for off := lo; off < hi; off += batchLen {
			end := off + batchLen
			if end > hi {
				end = hi
			}
			if err := s.AppendChunk(agg.Chunk{Keys: keys[off:end], Vals: vals[off:end]}, false); err != nil {
				return err
			}
		}
		return s.Flush()
	}
	if baseRows > 0 {
		if err := appendAll(0, baseRows); err != nil {
			return nil, err
		}
		s.MergeNow()
	}
	if baseRows < len(keys) {
		if err := appendAll(baseRows, len(keys)); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// ExtQuery measures the snapshot query path (PR 7) along its three axes:
// query workers, group count, and how many sealed deltas the view pins.
//
// The table sweeps workers × cardinality × sealed-delta count and
// reports, per cell, the cold first query (partition-wise delta fold +
// scan), the warm query (fold memoized on the view — pure scan), and a
// result-cache hit. On a single-CPU host every worker count time-shares
// one core, so parallel rows measure dispatch overhead, not speedup. The
// serial-fallback crossover behind agg.SerialQueryCutoff is measured by
// BenchmarkSnapshotQuery's cutoff cases (internal/stream).
func ExtQuery(cfg Config) error {
	warm()
	low, high := cfg.lowHighCards()
	const sealRows = 1 << 13

	tw := newTable(cfg.Out, "workers", "groups", "sealed_deltas", "cold_ms", "warm_ms", "cached_ns")
	for _, workers := range []int{1, 2, 8} {
		for _, card := range []int{low, high} {
			keys := keysFor(cfg, dataset.RseqShf, card)
			vals := dataset.Values(len(keys), cfg.Seed)
			for _, deltas := range []int{0, 8, 32} {
				scfg := stream.Config{MergeBits: 6, QueryWorkers: workers, QueryCacheEntries: -1}
				s, err := layeredQueryStream(scfg, keys, vals, deltas, sealRows)
				if err != nil {
					return err
				}
				// Ingest leaves collectable garbage behind; collect it now so
				// the GC doesn't land inside a timed query.
				runtime.GC()
				cold := timeIt(func() { s.Snapshot().CountByKey() })
				warmT := time.Duration(1 << 62)
				for r := 0; r < 3; r++ {
					runtime.GC()
					if el := timeIt(func() { s.Snapshot().CountByKey() }); el < warmT {
						warmT = el
					}
				}
				if err := s.Close(); err != nil {
					return err
				}

				scfg.QueryCacheEntries = 0 // default cache on
				c, err := layeredQueryStream(scfg, keys, vals, deltas, sealRows)
				if err != nil {
					return err
				}
				c.Snapshot().CountByKey() // miss: fold + scan + insert
				hit := time.Duration(1 << 62)
				for r := 0; r < 5; r++ {
					if el := timeIt(func() { c.Snapshot().CountByKey() }); el < hit {
						hit = el
					}
				}
				if err := c.Close(); err != nil {
					return err
				}
				fmt.Fprintf(tw, "%d\t%d\t%d\t%s\t%s\t%d\n",
					workers, card, deltas, ms(cold), ms(warmT), hit.Nanoseconds())
			}
		}
	}
	return tw.Flush()
}
