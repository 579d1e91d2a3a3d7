package hashtbl

import "unsafe"

// LinearProbe is the paper's custom linear-probing hash table (Hash_LP):
// open addressing in one contiguous slot array, probing forward in steps of
// one. The default mode keeps a power-of-two capacity so the slot index is
// computed with a bitwise AND; the paper's fallback mode (for memory-tight
// cases) uses a prime capacity with a modulo reduction and exists here both
// for fidelity and for the mask-vs-mod ablation benchmark.
//
// Key 0 is supported: slot emptiness is encoded by key 0 plus a separate
// dedicated cell for the zero key, keeping the hot probe loop to a single
// array access per slot.
//
// Average-case insert and lookup are O(1); the worst case degrades to O(n)
// under primary clustering, which is exactly the behaviour the paper's
// skewed datasets exercise.
type LinearProbe[V any] struct {
	keys []uint64
	vals []V
	mask uint64 // capacity-1 when useMask, else unused
	size int    // occupied slots, excluding the zero key
	grow int    // size threshold that triggers doubling

	useMask bool
	modCap  uint64 // prime capacity when !useMask

	hasZero bool
	zeroVal V
}

// lpMaxLoadNum/lpMaxLoadDen give the 7/8 maximum load factor.
const (
	lpMaxLoadNum = 7
	lpMaxLoadDen = 8
)

// NewLinearProbe returns a table pre-sized for capacity elements
// (power-of-two slots, AND masking). The paper sizes tables to the dataset
// size since the group-by cardinality is unknown in advance.
func NewLinearProbe[V any](capacity int) *LinearProbe[V] {
	slots := NextPow2(maxInt(capacity*lpMaxLoadDen/lpMaxLoadNum, 16))
	t := &LinearProbe[V]{useMask: true}
	t.alloc(slots)
	return t
}

// NewLinearProbeMod returns a table in the paper's fallback mode: capacity
// rounded up to a prime and slot selection via modulo. Memory-exact but
// slower per probe; used by the mask-vs-mod ablation.
func NewLinearProbeMod[V any](capacity int) *LinearProbe[V] {
	slots := nextPrime(maxInt(capacity*lpMaxLoadDen/lpMaxLoadNum, 17))
	t := &LinearProbe[V]{useMask: false}
	t.alloc(slots)
	return t
}

// pageBytes is the smallest page size a slot array is touched at.
const pageBytes = 4096

// alloc installs fresh zeroed slot arrays and writes one zero per page
// into each. The probe reads a slot before it writes it, and on memory
// the kernel has not mapped yet that read maps the shared zero page, so
// the write faults a second time; writing first makes it one fault per
// page. Tables sized up front (a stream delta's partitions, seeded from
// the previous delta) start on such memory more often than tables grown
// by doubling, whose discarded predecessors the heap recycles.
func (t *LinearProbe[V]) alloc(slots int) {
	t.keys = make([]uint64, slots)
	t.vals = make([]V, slots)
	for i := 0; i < slots; i += pageBytes / 8 {
		t.keys[i] = 0
	}
	var zero V
	for i, step := 0, max(pageBytes/max(int(unsafe.Sizeof(zero)), 1), 1); i < slots; i += step {
		t.vals[i] = zero
	}
	if t.useMask {
		t.mask = uint64(slots - 1)
	} else {
		t.modCap = uint64(slots)
	}
	t.grow = slots * lpMaxLoadNum / lpMaxLoadDen
	t.size = 0
}

// slot maps a hash to a starting slot index.
func (t *LinearProbe[V]) slot(h uint64) uint64 {
	if t.useMask {
		return h & t.mask
	}
	return h % t.modCap
}

// next advances a probe index by one with wraparound.
func (t *LinearProbe[V]) next(i uint64) uint64 {
	if t.useMask {
		return (i + 1) & t.mask
	}
	i++
	if i == t.modCap {
		return 0
	}
	return i
}

// Len returns the number of stored keys.
func (t *LinearProbe[V]) Len() int {
	if t.hasZero {
		return t.size + 1
	}
	return t.size
}

// Cap returns the number of slots, a proxy for the table's memory footprint.
func (t *LinearProbe[V]) Cap() int { return len(t.keys) }

// Upsert returns a pointer to the value for key, inserting a zero value if
// the key is absent. The pointer is valid until the next mutating call.
func (t *LinearProbe[V]) Upsert(key uint64) *V {
	return t.UpsertH(key, Mix(key))
}

// UpsertH is Upsert with a caller-supplied hash (which must be Mix(key)).
// The build kernels batch hash computation over blocks of rows — filling a
// small hash buffer first, then probing — so the multiply chains of Mix
// overlap across rows instead of serializing with each probe's dependent
// loads; this is the entry point that makes the batching possible.
func (t *LinearProbe[V]) UpsertH(key, h uint64) *V {
	if key == 0 {
		t.hasZero = true
		return &t.zeroVal
	}
	if t.size >= t.grow {
		t.rehash(len(t.keys) * 2)
	}
	i := t.slot(h)
	for {
		k := t.keys[i]
		if k == key {
			return &t.vals[i]
		}
		if k == 0 {
			t.keys[i] = key
			t.size++
			return &t.vals[i]
		}
		i = t.next(i)
	}
}

// Get returns a pointer to the value stored for key, or nil if absent.
func (t *LinearProbe[V]) Get(key uint64) *V {
	if key == 0 {
		if t.hasZero {
			return &t.zeroVal
		}
		return nil
	}
	i := t.slot(Mix(key))
	for {
		k := t.keys[i]
		if k == key {
			return &t.vals[i]
		}
		if k == 0 {
			return nil
		}
		i = t.next(i)
	}
}

// Delete removes key, returning whether it was present. Uses backward-shift
// deletion, so no tombstones accumulate and probe sequences stay compact.
func (t *LinearProbe[V]) Delete(key uint64) bool {
	if key == 0 {
		had := t.hasZero
		t.hasZero = false
		var zero V
		t.zeroVal = zero
		return had
	}
	i := t.slot(Mix(key))
	for {
		k := t.keys[i]
		if k == 0 {
			return false
		}
		if k == key {
			break
		}
		i = t.next(i)
	}
	// Backward-shift: pull displaced successors into the hole.
	var zero V
	j := i
	for {
		j = t.next(j)
		k := t.keys[j]
		if k == 0 {
			break
		}
		h := t.slot(Mix(k))
		// Element at j may fill the hole at i iff its home slot h does not
		// lie in the cyclic interval (i, j].
		if t.dist(h, j) >= t.dist(i, j) {
			t.keys[i] = k
			t.vals[i] = t.vals[j]
			i = j
		}
	}
	t.keys[i] = 0
	t.vals[i] = zero
	t.size--
	return true
}

// dist returns the cyclic distance from a to b (number of next() steps).
func (t *LinearProbe[V]) dist(a, b uint64) uint64 {
	if t.useMask {
		return (b - a) & t.mask
	}
	if b >= a {
		return b - a
	}
	return t.modCap - a + b
}

// Iterate calls fn for every key/value pair, in unspecified order, stopping
// early if fn returns false. The value pointer may be used to update the
// stored value in place.
func (t *LinearProbe[V]) Iterate(fn func(key uint64, val *V) bool) {
	if t.hasZero {
		if !fn(0, &t.zeroVal) {
			return
		}
	}
	for i, k := range t.keys {
		if k != 0 {
			if !fn(k, &t.vals[i]) {
				return
			}
		}
	}
}

func (t *LinearProbe[V]) rehash(slots int) {
	oldKeys, oldVals := t.keys, t.vals
	if !t.useMask {
		slots = nextPrime(slots)
	}
	t.alloc(slots)
	for i, k := range oldKeys {
		if k == 0 {
			continue
		}
		j := t.slot(Mix(k))
		for t.keys[j] != 0 {
			j = t.next(j)
		}
		t.keys[j] = k
		t.vals[j] = oldVals[i]
		t.size++
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
