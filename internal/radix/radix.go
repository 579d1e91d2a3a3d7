// Package radix implements parallel hash-radix partitioning of key (and
// key/value) columns — the cache-conscious first phase of radix-partitioned
// aggregation and the radix-join family of algorithms.
//
// Partitioning splits the input into P = 2^bits partitions by the top bits
// of the shared hash finalizer (hashtbl.Mix), so every occurrence of a key
// lands in exactly one partition. A consumer can then aggregate each
// partition independently: no shared structure, no locks, no merge phase —
// and, because the partitions are disjoint by key, even holistic functions
// (median, mode) work per-partition.
//
// The scatter uses per-worker software write-combining buffers, following
// the radix-join literature: each worker stages tuples for a partition in a
// small cache-line-sized buffer and copies the buffer to the output array
// only when it fills. The random-write traffic is thereby confined to P
// small buffers that stay cache-resident, while the output array sees only
// bulk sequential writes — the difference between a TLB-thrashing scatter
// and a streaming one once P grows past the cache/TLB reach.
package radix

import (
	"sync"

	"memagg/internal/hashtbl"
)

// wcEntries is the number of tuples staged per partition before a bulk
// flush: 8 key words (64 bytes) fill one cache line, so a flush writes
// whole lines of the output array.
const wcEntries = 8

// MaxBits bounds the partitioning fan-out. Beyond 2^12 destinations the
// write-combining buffers themselves outgrow the L2 cache and the scatter
// degrades, which is exactly the effect the buffers exist to avoid.
const MaxBits = 12

// Partitioned is the result of one partitioning pass: a permuted copy of
// the input columns in which partition p occupies the contiguous range
// [Bounds[p], Bounds[p+1]).
type Partitioned struct {
	Keys   []uint64
	Vals   []uint64 // nil when no value column was supplied
	Bounds []int    // len NumPartitions()+1, ascending, Bounds[0] == 0
	Bits   int
}

// NumPartitions returns the fan-out P = 2^Bits.
func (pt *Partitioned) NumPartitions() int { return len(pt.Bounds) - 1 }

// PartKeys returns partition p's key column.
func (pt *Partitioned) PartKeys(p int) []uint64 {
	return pt.Keys[pt.Bounds[p]:pt.Bounds[p+1]]
}

// PartVals returns partition p's value column, or nil when the input had
// no value column.
func (pt *Partitioned) PartVals(p int) []uint64 {
	if pt.Vals == nil {
		return nil
	}
	return pt.Vals[pt.Bounds[p]:pt.Bounds[p+1]]
}

// PartitionIndex returns the partition a key belongs to under the given
// fan-out: the top bits of the mixed hash. The low bits remain free for
// slot selection inside a per-partition hash table, so partition choice
// and probe sequence stay independent.
func PartitionIndex(key uint64, bits int) int {
	return int(hashtbl.Mix(key) >> (64 - uint(bits)))
}

// Partition scatters keys (and, when vals is non-nil, the paired values)
// into 2^bits partitions using the given number of workers. vals may be
// shorter than keys; missing values are treated as zero, matching the
// aggregation operators. bits is clamped to [1, MaxBits]; workers <= 1
// runs the scatter serially (still through the write-combining buffers, so
// the memory behaviour is identical).
//
// The pass is deterministic for fixed inputs and worker count: worker w
// scatters the w-th contiguous input chunk, and within a partition tuples
// appear in chunk order.
func Partition(keys, vals []uint64, bits, workers int) *Partitioned {
	var vs [][]uint64
	if vals != nil {
		vs = [][]uint64{vals}
	}
	return PartitionSegments([][]uint64{keys}, vs, bits, workers)
}

// PartitionSegments is Partition over the concatenation of the key
// segments keys[0], keys[1], ...: a column that arrived in pieces is
// scattered without first being copied into one. When vals is non-nil it
// holds one value segment per key segment, each paired with its key
// segment like Partition's vals (a short or missing segment reads as
// zeros).
func PartitionSegments(keys, vals [][]uint64, bits, workers int) *Partitioned {
	if bits < 1 {
		bits = 1
	}
	if bits > MaxBits {
		bits = MaxBits
	}
	n := 0
	for _, seg := range keys {
		n += len(seg)
	}
	p := 1 << uint(bits)
	if workers < 1 {
		workers = 1
	}
	if workers > n {
		workers = 1
	}

	// Phase A: per-worker histograms over contiguous chunks.
	hists := make([][]int, workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			h := make([]int, p)
			pieces(keys, n*w/workers, n*(w+1)/workers, func(s, lo, hi int) {
				for _, k := range keys[s][lo:hi] {
					h[PartitionIndex(k, bits)]++
				}
			})
			hists[w] = h
		}(w)
	}
	wg.Wait()

	// Prefix sums: partition-major, worker-minor, so worker w's slice of
	// partition q starts at cursors[w][q] and the partitions are contiguous.
	bounds := make([]int, p+1)
	cursors := make([][]int, workers)
	for w := range cursors {
		cursors[w] = make([]int, p)
	}
	off := 0
	for q := 0; q < p; q++ {
		bounds[q] = off
		for w := 0; w < workers; w++ {
			cursors[w][q] = off
			off += hists[w][q]
		}
	}
	bounds[p] = off

	pt := &Partitioned{
		Keys:   make([]uint64, n),
		Bounds: bounds,
		Bits:   bits,
	}
	if vals != nil {
		pt.Vals = make([]uint64, n)
	}

	// Phase B: scatter through write-combining buffers into the exact
	// offsets computed above. No two workers ever write the same output
	// index, so the phase is lock-free.
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			c := newCombiner(pt, cursors[w])
			pieces(keys, n*w/workers, n*(w+1)/workers, func(s, lo, hi int) {
				var vs []uint64
				if s < len(vals) {
					vs = vals[s]
				}
				c.scatter(keys[s], vs, lo, hi)
			})
			c.flush()
		}(w)
	}
	wg.Wait()
	return pt
}

// pieces calls f(s, lo, hi) for every segment s that overlaps rows
// [from, to) of the segments' concatenation, [lo, hi) being the overlap
// in segment s's own indexes.
func pieces(keys [][]uint64, from, to int, f func(s, lo, hi int)) {
	off := 0
	for s, seg := range keys {
		end := off + len(seg)
		if end > from && off < to {
			f(s, max(from, off)-off, min(to, end)-off)
		}
		if off = end; off >= to {
			return
		}
	}
}

// combiner is one worker's write-combining state: a small buffer per
// partition and the worker's next output index per partition.
type combiner struct {
	pt         *Partitioned
	bufK, bufV []uint64
	fill       []uint8
	cur        []int
}

func newCombiner(pt *Partitioned, cur []int) *combiner {
	p := pt.NumPartitions()
	c := &combiner{pt: pt, bufK: make([]uint64, p*wcEntries), fill: make([]uint8, p), cur: cur}
	if pt.Vals != nil {
		c.bufV = make([]uint64, p*wcEntries)
	}
	return c
}

// scatter writes keys[lo:hi] (and paired values) to their partitions,
// staging tuples in per-partition write-combining buffers and flushing each
// buffer as a bulk copy when it fills. cur[q] is this worker's next output
// index for partition q and advances as tuples are flushed.
func (c *combiner) scatter(keys, vals []uint64, lo, hi int) {
	pt, bufK, bufV, fill, cur := c.pt, c.bufK, c.bufV, c.fill, c.cur
	bits := pt.Bits
	for i := lo; i < hi; i++ {
		k := keys[i]
		q := PartitionIndex(k, bits)
		f := int(fill[q])
		base := q * wcEntries
		bufK[base+f] = k
		if bufV != nil {
			var v uint64
			if i < len(vals) {
				v = vals[i]
			}
			bufV[base+f] = v
		}
		f++
		if f == wcEntries {
			dst := cur[q]
			copy(pt.Keys[dst:dst+wcEntries], bufK[base:base+wcEntries])
			if bufV != nil {
				copy(pt.Vals[dst:dst+wcEntries], bufV[base:base+wcEntries])
			}
			cur[q] = dst + wcEntries
			f = 0
		}
		fill[q] = uint8(f)
	}
}

// flush copies the partial buffers out.
func (c *combiner) flush() {
	pt := c.pt
	for q := range c.fill {
		f := int(c.fill[q])
		if f == 0 {
			continue
		}
		base := q * wcEntries
		dst := c.cur[q]
		copy(pt.Keys[dst:dst+f], c.bufK[base:base+f])
		if c.bufV != nil {
			copy(pt.Vals[dst:dst+f], c.bufV[base:base+f])
		}
		c.cur[q] = dst + f
		c.fill[q] = 0
	}
}
