package harness

import (
	"fmt"
	"time"

	"memagg/internal/agg"
	"memagg/internal/cview"
	"memagg/internal/dataset"
	"memagg/internal/stream"
)

// ExtCView measures the continuous-view subsystem (internal/cview): what
// a standing query costs to read incrementally versus recomputing its
// window from scratch, as the window grows in panes.
//
// Each row ingests the dataset through a single-shard stream one seal per
// pane, with a sliding q1 view of `panes` panes registered up front. After
// every seal it takes one incremental read (settle the pane's deferred
// folds, merge the live panes, run the kernel) and one recompute (feed the
// window's rows into a fresh single-shard stream, flush, query — what a
// caller without views would do per poll). Both sides answer over exactly
// the same rows; the experiment reports the per-read averages and their
// ratio. Incremental wins grow with the window: recompute touches every
// row in the window per read, the view only merges pane tables — the
// acceptance gate below asserts >= 5x at 16 panes.
func ExtCView(cfg Config) error {
	warm()
	// A standing view earns its keep when panes compress: each read merges
	// panes (O(panes x groups)) where recompute replays rows (O(window)).
	// Dashboard-style workloads aggregate wide panes into few groups, so
	// the sweep fixes cardinality at 256 against 8k-row panes.
	const paneRows = 1 << 13
	const card = 256

	tw := newTable(cfg.Out, "panes", "groups", "window_rows", "incr_read_us", "recompute_us", "speedup")
	for _, panes := range []int{4, 8, 16, 32} {
		rows := (panes + 4) * paneRows // enough seals to fill and slide the window
		if rows > cfg.N {
			rows = cfg.N
		}
		spec := dataset.Spec{Kind: dataset.RseqShf, N: rows, Cardinality: card, Seed: cfg.Seed}
		keys := spec.Keys()
		vals := dataset.Values(len(keys), cfg.Seed)

		s := stream.New(stream.Config{Shards: 1, QueueDepth: 8, SealRows: 1 << 30, MergeBits: 4})
		if err := s.RegisterView(cview.Spec{
			Name:     "w",
			Query:    agg.Query{ID: agg.QCountByKey},
			PaneRows: paneRows,
			Panes:    panes,
			Sliding:  true,
		}); err != nil {
			return err
		}

		var incr, recompute time.Duration
		var reads int
		for off := 0; off < len(keys); off += paneRows {
			end := off + paneRows
			if end > len(keys) {
				end = len(keys)
			}
			if err := s.AppendChunk(agg.Chunk{Keys: keys[off:end], Vals: vals[off:end]}, false); err != nil {
				return err
			}
			if err := s.Flush(); err != nil { // one seal = one pane
				return err
			}

			res, err := func() (*cview.Result, error) {
				defer func(t0 time.Time) { incr += time.Since(t0) }(time.Now())
				return s.ViewResult("w")
			}()
			if err != nil {
				return err
			}

			// Recompute: what the window costs without the view. The rows
			// are sliced straight from the dataset by the view's own window
			// bounds, so both sides aggregate identical input.
			lo, hi := res.WindowStart, res.WindowEnd
			t0 := time.Now()
			r := stream.New(stream.Config{Shards: 1, QueueDepth: 8, SealRows: 1 << 30, MergeBits: 4})
			if err := r.AppendChunk(agg.Chunk{Keys: keys[lo:hi], Vals: vals[lo:hi]}, false); err != nil {
				return err
			}
			if err := r.Flush(); err != nil {
				return err
			}
			got := r.Snapshot().CountByKey()
			recompute += time.Since(t0)
			if err := r.Close(); err != nil {
				return err
			}
			if len(got) != res.Groups {
				return fmt.Errorf("cview: incremental read saw %d groups, recompute %d", res.Groups, len(got))
			}
			reads++
		}
		if err := s.Close(); err != nil {
			return err
		}

		incrUs := float64(incr.Microseconds()) / float64(reads)
		recompUs := float64(recompute.Microseconds()) / float64(reads)
		fmt.Fprintf(tw, "%d\t%d\t%d\t%.1f\t%.1f\t%.1fx\n",
			panes, card, uint64(panes)*paneRows, incrUs, recompUs, recompUs/incrUs)
	}
	return tw.Flush()
}
