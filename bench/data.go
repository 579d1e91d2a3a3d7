package main

import (
	"memagg"
	"memagg/internal/dataset"
)

// pool is a fixed, seed-determined set of chunks with their wire bodies
// encoded once in set-up. Ingest workloads cycle through it, so the driver
// holds tens of MB however long the measured phase is, and the oracle
// follows from how often each chunk was sent.
type pool struct {
	groups    int
	chunkRows int // rows per chunk: one POST carries one chunk
	chunks    []memagg.Chunk
	bodies    [][]byte
}

// newPool generates chunks*chunkRows rows (keys from internal/dataset,
// values from dataset.Values), cuts them into chunks and encodes each.
func newPool(kind dataset.Kind, chunks, chunkRows, groups int, seed uint64) *pool {
	rows := chunks * chunkRows
	keys := dataset.Spec{Kind: kind, N: rows, Cardinality: groups, Seed: seed}.Keys()
	vals := dataset.Values(rows, seed)
	return cutPool(keys, vals, chunkRows, groups)
}

// newPermPool builds n chunks that each hold every key of 1..hot
// exactly once (a seed-determined permutation per chunk) with the value a
// fixed function of the key. Any set of whole chunks then aggregates to the
// same per-key state, so a result is checkable at any watermark no matter
// which shard sealed first — what dash_refresh needs, since it reads while
// the watermark moves.
func newPermPool(n, hot int, seed uint64) *pool {
	keys := make([]uint64, 0, n*hot)
	rng := dataset.NewRNG(seed ^ 0x7065726d) // "perm"
	for c := 0; c < n; c++ {
		perm := dataset.Sequential(hot)
		rng.Shuffle(perm)
		keys = append(keys, perm...)
	}
	vals := make([]uint64, len(keys))
	for i, k := range keys {
		vals[i] = liveValue(k)
	}
	return cutPool(keys, vals, hot, hot)
}

// liveValue is the value every live dash_refresh row of key k carries.
func liveValue(k uint64) uint64 { return k * 7919 % 1_000_000 }

func cutPool(keys, vals []uint64, chunkRows, groups int) *pool {
	p := &pool{groups: groups, chunkRows: chunkRows}
	for lo := 0; lo+chunkRows <= len(keys); lo += chunkRows {
		c := memagg.Chunk{Keys: keys[lo : lo+chunkRows], Vals: vals[lo : lo+chunkRows]}
		p.chunks = append(p.chunks, c)
		p.bodies = append(p.bodies, memagg.AppendChunkWire(make([]byte, 0, memagg.ChunkWireSize(chunkRows)), c))
	}
	return p
}

func (p *pool) rows() int { return len(p.chunks) * p.chunkRows }

// tally is the dense per-key oracle state over keys 1..groups: what a map
// from key to (count, sum) would hold, indexable because every generated
// key lies in [1, groups].
type tally struct {
	count []uint64
	sum   []uint64
}

func newTally(groups int) *tally {
	return &tally{count: make([]uint64, groups+1), sum: make([]uint64, groups+1)}
}

// add folds chunk c in, times over.
func (t *tally) add(c memagg.Chunk, times uint64) {
	if times == 0 {
		return
	}
	for i, k := range c.Keys {
		t.count[k] += times
		t.sum[k] += times * c.Vals[i]
	}
}

// checksum is the order-independent digest of a count-by-key result:
// groups, total rows, and the XOR of a mixed (key, count) hash. Two results
// agree iff they hold the same (key, count) set (up to hash collision).
type checksum struct {
	Groups int
	Rows   uint64
	Xor    uint64
}

func (c *checksum) add(key, count uint64) {
	c.Groups++
	c.Rows += count
	c.Xor ^= mixPair(key, count)
}

// mixPair hashes one (key, count) pair: a splitmix64 finalizer over the two
// words combined with distinct odd multipliers.
func mixPair(key, count uint64) uint64 {
	z := key*0x9e3779b97f4a7c15 ^ count*0xc2b2ae3d27d4eb4f
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	return z ^ z>>31
}

// checksum digests the tally's non-empty groups.
func (t *tally) checksum() checksum {
	var c checksum
	for k, n := range t.count {
		if n > 0 {
			c.add(uint64(k), n)
		}
	}
	return c
}

// checksumCounts digests a count-by-key result as the library returns it.
func checksumCounts(rows []memagg.GroupCount) checksum {
	var c checksum
	for _, r := range rows {
		c.add(r.Key, r.Count)
	}
	return c
}

// checksumKeys is the oracle for a raw key column with keys in [1, groups].
func checksumKeys(keys []uint64, groups int) checksum {
	t := newTally(groups)
	for _, k := range keys {
		t.count[k]++
	}
	return t.checksum()
}
