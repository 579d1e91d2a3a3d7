package agg

import (
	"fmt"

	"memagg/internal/arena"
	"memagg/internal/xsort"
)

// Allocator selects the paper's Dimension 6 — the memory-allocation
// strategy backing query-lifetime state. Its §6 experiments show allocator
// choice alone swings aggregation throughput by large factors; here the
// same knob contrasts the Go runtime allocator with the arena layer.
type Allocator int

const (
	// AllocGoRuntime is the default: every per-group buffer and scratch
	// slice is a plain heap allocation, collected by the GC.
	AllocGoRuntime Allocator = iota

	// AllocArena routes the hot-path allocations through internal/arena:
	// holistic per-group value lists become chunked, pointer-free arena
	// lists (hash, tree and radix engines), and the sort engines' large
	// copy/zip buffers are recycled across queries. Arenas are pooled and
	// reset between queries, so the steady state allocates almost nothing
	// and the GC has almost nothing to scan.
	AllocArena
)

// String returns the harness label for the allocator.
func (a Allocator) String() string {
	switch a {
	case AllocGoRuntime:
		return "go-runtime"
	case AllocArena:
		return "arena"
	default:
		return fmt.Sprintf("Allocator(%d)", int(a))
	}
}

// Allocators lists the settings of the allocator dimension, sweep order.
func Allocators() []Allocator { return []Allocator{AllocGoRuntime, AllocArena} }

// Shared reset-and-reuse pools. arenas hands a private arena to each query
// (and to each worker inside the partitioned engines — the per-worker
// shards); the slice pools recycle the sort engines' contiguous buffers.
var (
	arenas  arena.Pool
	u64Pool arena.SlicePool[uint64]
	kvPool  arena.SlicePool[xsort.KV]
)

// WithAllocator returns a copy of e configured to allocate with al. The
// hash, tree, sort, radix (Hash_RX) and global shared-table (Hash_GLB)
// engines honour the knob, as does Adaptive (it forwards the allocator to
// the engines it routes between). Hash_GLB honours it on the holistic path
// only, where the parallel striped replay degrades to a serial replay into
// one pooled arena — a single-owner arena cannot take concurrent appends.
// The shared-table concurrent engines (Hash_LC, Hash_TBBSC) and Hash_PLAT
// are returned unchanged: their groups are appended by many workers at
// once, which a single-owner arena cannot serve (DESIGN.md discusses the
// concurrent-arena extension).
func WithAllocator(e Engine, al Allocator) Engine {
	switch eng := e.(type) {
	case *tableEngine:
		c := *eng
		c.alloc = al
		return &c
	case *sortEngine:
		c := *eng
		c.alloc = al
		return &c
	case *radixEngine:
		c := *eng
		c.lp.alloc = al
		return &c
	case *globalEngine:
		c := *eng
		c.lp.alloc = al
		return &c
	case *adaptiveEngine:
		c := *eng
		c.hash = WithAllocator(eng.hash, al)
		c.sort = WithAllocator(eng.sort, al)
		return &c
	default:
		return e
	}
}

// EngineAllocator reports the allocator an engine is configured with.
func EngineAllocator(e Engine) Allocator {
	switch eng := e.(type) {
	case *tableEngine:
		return eng.alloc
	case *sortEngine:
		return eng.alloc
	case *radixEngine:
		return eng.lp.alloc
	case *globalEngine:
		return eng.lp.alloc
	case *adaptiveEngine:
		return EngineAllocator(eng.hash)
	default:
		return AllocGoRuntime
	}
}
