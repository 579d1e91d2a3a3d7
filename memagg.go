// Package memagg is an in-memory aggregation library: a complete, tested
// Go implementation of every algorithm, dataset, and experiment from
// "A Six-dimensional Analysis of In-memory Aggregation" (Memarzia, Ray,
// Bhavsar — EDBT 2019).
//
// The package exposes:
//
//   - Aggregator — group-by aggregation (COUNT/AVG/MEDIAN, vector and
//     scalar, with range filtering) over a selectable backend: four
//     hash-table families, three tree families, two serial sorts, and
//     four multithreaded algorithms;
//   - dataset generation (Generate) for the paper's six synthetic key
//     distributions;
//   - Recommend — the paper's Figure 12 decision flow chart as a function:
//     given a workload description, it names the algorithm the paper's
//     experiments favour.
//
// Backends behave identically (the test suite cross-checks every backend
// against a reference model); they differ in speed and memory exactly
// along the six dimensions the paper analyzes. Use Recommend — or run the
// reproduction harness in cmd/aggbench — to pick one for your workload.
package memagg

import (
	"memagg/internal/agg"
	"memagg/internal/dataset"
)

// Backend names an aggregation algorithm using the paper's Table 3/8
// labels.
type Backend string

// Serial backends (Table 3).
const (
	ART        Backend = "ART"         // adaptive radix tree
	Judy       Backend = "Judy"        // Judy-style radix array
	Btree      Backend = "Btree"       // cache-conscious B+tree
	HashSC     Backend = "Hash_SC"     // separate chaining
	HashLP     Backend = "Hash_LP"     // linear probing
	HashSparse Backend = "Hash_Sparse" // sparse quadratic probing
	HashDense  Backend = "Hash_Dense"  // dense quadratic probing
	HashLC     Backend = "Hash_LC"     // concurrent bucketized cuckoo
	Introsort  Backend = "Introsort"   // std::sort-style hybrid sort
	Spreadsort Backend = "Spreadsort"  // Boost spreadsort-style hybrid
	Ttree      Backend = "Ttree"       // T-tree (historical; see Figure 3)
)

// Concurrent backends (Table 8). They honour Options.Threads.
const (
	HashTBBSC Backend = "Hash_TBBSC" // striped separate chaining
	SortBI    Backend = "Sort_BI"    // parallel block sort
	SortQSLB  Backend = "Sort_QSLB"  // load-balanced parallel quicksort
)

// Extension backends beyond the paper's tables (see DESIGN.md):
// partitioned parallel aggregation after the PLAT line of work the paper
// surveys, radix-partitioned parallel aggregation, and the adaptive
// sort/hash hybrid its Section 5.5 suggests.
const (
	HashPLAT Backend = "Hash_PLAT" // thread-local tables + partitioned merge
	HashRX   Backend = "Hash_RX"   // radix-partitioned two-phase aggregation
	HashGLB  Backend = "Hash_GLB"  // morsel-driven global shared table
	Adaptive Backend = "Adaptive"  // samples input, routes to Hash_LP or Spreadsort
)

// Backends lists every selectable backend.
func Backends() []Backend {
	return []Backend{
		ART, Judy, Btree, HashSC, HashLP, HashSparse, HashDense, HashLC,
		Introsort, Spreadsort, Ttree, HashTBBSC, SortBI, SortQSLB,
		HashPLAT, HashRX, HashGLB, Adaptive,
	}
}

// Allocator selects the memory-allocation strategy backing query-lifetime
// state — the paper's Dimension 6, where allocator choice alone swings
// aggregation throughput by large factors.
type Allocator string

const (
	// AllocGoRuntime (the default, also selected by the empty string) uses
	// plain Go heap allocations collected by the GC.
	AllocGoRuntime Allocator = "go-runtime"

	// AllocArena routes hot-path allocations through a pooled bump
	// allocator: holistic per-group value buffers become chunked arena
	// lists and the sort backends' working copies are recycled across
	// queries. Honoured by the hash, tree, sort, Hash_RX and Hash_GLB
	// backends (and Adaptive); the shared-table concurrent backends
	// (Hash_LC, Hash_TBBSC, Hash_PLAT) ignore it — their groups are
	// appended by many workers at once, which a single-owner arena cannot
	// serve. Hash_GLB takes a serial holistic merge under this allocator
	// for the same reason.
	AllocArena Allocator = "arena"
)

// Allocators lists the selectable allocation strategies.
func Allocators() []Allocator { return []Allocator{AllocGoRuntime, AllocArena} }

// Options configures an Aggregator.
type Options struct {
	// Threads sets the build parallelism of the concurrent backends
	// (Hash_TBBSC, Hash_LC, Sort_BI, Sort_QSLB, Hash_PLAT, Hash_RX,
	// Hash_GLB). <= 0 means GOMAXPROCS. Serial backends ignore it.
	Threads int

	// Allocator selects the allocation strategy (Dimension 6). The zero
	// value selects AllocGoRuntime.
	Allocator Allocator
}

// GroupCount is one row of a vector COUNT result (Q1, Q7).
type GroupCount = agg.GroupCount

// GroupValue is one row of a vector AVG, MEDIAN, quantile or mode result.
type GroupValue = agg.GroupFloat

// GroupStat is one row of a SUM/MIN/MAX result.
type GroupStat = agg.GroupUint

// Aggregator executes aggregation queries over one backend. It is
// stateless between calls and safe for concurrent use by multiple
// goroutines (each call builds a private structure).
type Aggregator struct {
	backend Backend
	engine  agg.Engine
}

// New returns an Aggregator for the given backend.
func New(b Backend, opts Options) (*Aggregator, error) {
	e, err := engineFor(b, opts)
	if err != nil {
		return nil, err
	}
	switch opts.Allocator {
	case "", AllocGoRuntime:
		// agg.AllocGoRuntime is the engines' zero value.
	case AllocArena:
		e = agg.WithAllocator(e, agg.AllocArena)
	default:
		return nil, wrapErr(ErrUnknownAllocator, "memagg: unknown allocator %q", opts.Allocator)
	}
	return &Aggregator{backend: b, engine: e}, nil
}

func engineFor(b Backend, opts Options) (agg.Engine, error) {
	switch b {
	case HashTBBSC:
		return agg.HashTBBSC(opts.Threads), nil
	case SortBI:
		return agg.SortBI(opts.Threads), nil
	case SortQSLB:
		return agg.SortQSLB(opts.Threads), nil
	case HashPLAT:
		return agg.HashPLAT(opts.Threads), nil
	case HashRX:
		return agg.HashRX(opts.Threads), nil
	case HashGLB:
		return agg.HashGLB(opts.Threads), nil
	case Adaptive:
		return agg.Adaptive(), nil
	case HashLC:
		threads := opts.Threads
		if threads == 0 {
			threads = 1 // the paper's serial configuration
		}
		return agg.HashLC(threads), nil
	default:
		e, err := agg.ByName(string(b))
		if err != nil {
			return nil, wrapErr(ErrUnknownBackend, "memagg: unknown backend %q", b)
		}
		return e, nil
	}
}

// Backend returns the backend this aggregator runs on.
func (a *Aggregator) Backend() Backend { return a.backend }

// CountByKey executes Q1: one (key, COUNT(*)) row per distinct key.
// Row order is ascending by key for sort- and tree-based backends and
// unspecified for hash-based ones.
func (a *Aggregator) CountByKey(keys []uint64) []GroupCount {
	return nonNil(a.engine.VectorCount(keys))
}

// AvgByKey executes Q2: one (key, AVG(values)) row per distinct key.
// values[i] belongs to keys[i]; a short values slice treats missing
// values as zero.
func (a *Aggregator) AvgByKey(keys, values []uint64) []GroupValue {
	return nonNil(a.engine.VectorAvg(keys, values))
}

// MedianByKey executes Q3 (holistic): one (key, MEDIAN(values)) row per
// distinct key.
func (a *Aggregator) MedianByKey(keys, values []uint64) []GroupValue {
	return nonNil(a.engine.VectorMedian(keys, values))
}

// Count executes Q4: COUNT(*) over the input.
func (a *Aggregator) Count(keys []uint64) uint64 { return agg.ScalarCount(keys) }

// Avg executes Q5: AVG over a column.
func (a *Aggregator) Avg(values []uint64) float64 { return agg.ScalarAvg(values) }

// Median executes Q6: MEDIAN over the key column. Hash-based backends
// cannot enumerate keys in order: they return a QueryError wrapping
// ErrUnsupportedQuery.
func (a *Aggregator) Median(keys []uint64) (float64, error) {
	v, err := a.engine.ScalarMedian(keys)
	if err != nil {
		return 0, a.queryErr("Median", err)
	}
	return v, nil
}

// CountRange executes Q7: Q1 restricted to lo <= key <= hi. Hash-based
// backends have no native range search: they return a QueryError wrapping
// ErrUnsupportedQuery.
func (a *Aggregator) CountRange(keys []uint64, lo, hi uint64) ([]GroupCount, error) {
	rows, err := a.engine.VectorCountRange(keys, lo, hi)
	if err != nil {
		return nil, a.queryErr("CountRange", err)
	}
	return nonNil(rows), nil
}

// SumByKey returns one (key, SUM(values)) row per distinct key.
func (a *Aggregator) SumByKey(keys, values []uint64) []GroupStat {
	return nonNil(a.engine.VectorReduce(keys, values, agg.OpSum))
}

// MinByKey returns one (key, MIN(values)) row per distinct key.
func (a *Aggregator) MinByKey(keys, values []uint64) []GroupStat {
	return nonNil(a.engine.VectorReduce(keys, values, agg.OpMin))
}

// MaxByKey returns one (key, MAX(values)) row per distinct key.
func (a *Aggregator) MaxByKey(keys, values []uint64) []GroupStat {
	return nonNil(a.engine.VectorReduce(keys, values, agg.OpMax))
}

// QuantileByKey returns one (key, q-quantile of values) row per distinct
// key, by the nearest-rank method. Holistic: each group's full value set
// is buffered during the build.
func (a *Aggregator) QuantileByKey(keys, values []uint64, q float64) []GroupValue {
	return nonNil(a.engine.VectorHolistic(keys, values, agg.QuantileFunc(q)))
}

// ModeByKey returns one (key, most frequent value) row per distinct key.
// Holistic.
func (a *Aggregator) ModeByKey(keys, values []uint64) []GroupValue {
	return nonNil(a.engine.VectorHolistic(keys, values, agg.ModeFunc))
}

// nonNil returns rows, or an empty slice where the engine answered nil:
// the batch vector methods answer empty input with [], not nil.
func nonNil[T any](rows []T) []T {
	if rows == nil {
		return []T{}
	}
	return rows
}

// --- dataset generation --------------------------------------------------------

// Distribution names one of the paper's synthetic key distributions
// (Table 4).
type Distribution = dataset.Kind

// The six distributions of Table 4.
const (
	Rseq    = dataset.Rseq    // repeating sequential
	RseqShf = dataset.RseqShf // repeating sequential, shuffled
	Hhit    = dataset.Hhit    // heavy hitter
	HhitShf = dataset.HhitShf // heavy hitter, shuffled
	Zipf    = dataset.Zipf    // Zipfian, e = 0.5
	MovC    = dataset.MovC    // moving cluster, W = 64
)

// Generate produces n keys from the given distribution with the target
// group-by cardinality. Deterministic for fixed arguments. See the
// internal/dataset package for the exact constructions.
func Generate(d Distribution, n, cardinality int, seed uint64) ([]uint64, error) {
	spec := dataset.Spec{Kind: d, N: n, Cardinality: cardinality, Seed: seed}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return spec.Keys(), nil
}

// GenerateValues produces a deterministic value column (uniform in
// [0, 1e6)) to pair with a generated key column.
func GenerateValues(n int, seed uint64) []uint64 {
	return dataset.Values(n, seed)
}
