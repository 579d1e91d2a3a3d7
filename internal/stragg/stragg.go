// Package stragg extends the aggregation operator framework to string
// group-by keys — the variable-length-key adaptation the paper's Section
// 3.1 anticipates. The same build/iterate decomposition applies: hash
// engines upsert into string tables, the tree engine uses the string ART,
// and the sort engines sort records with MSD radix or multikey quicksort
// so groups become contiguous.
//
// The ordered engines additionally answer the string analogs of the
// ordered queries: the scalar median key (Q6) and prefix-restricted counts
// (Q7's range condition, which for strings is naturally a prefix).
package stragg

import (
	"errors"
	"sort"

	"memagg/internal/agg"
	"memagg/internal/strhash"
	"memagg/internal/strsort"
	"memagg/internal/strtree"
)

// GroupCount is one row of a string-keyed vector COUNT result.
type GroupCount struct {
	Key   string
	Count uint64
}

// GroupFloat is one row of a string-keyed vector AVG or MEDIAN result.
type GroupFloat struct {
	Key   string
	Value float64
}

// ErrUnsupported mirrors agg.ErrUnsupported for the string engines.
var ErrUnsupported = errors.New("stragg: query unsupported by this algorithm")

// Engine executes the query set over string keys. Vector results are
// lexicographically ordered for sort- and tree-based engines, unspecified
// for hash-based ones.
type Engine interface {
	Name() string
	Category() agg.Category

	// VectorCount: SELECT key, COUNT(*) ... GROUP BY key.
	VectorCount(keys []string) []GroupCount
	// VectorAvg: SELECT key, AVG(val) ... GROUP BY key.
	VectorAvg(keys []string, vals []uint64) []GroupFloat
	// VectorMedian: SELECT key, MEDIAN(val) ... GROUP BY key (holistic).
	VectorMedian(keys []string, vals []uint64) []GroupFloat
	// ScalarMedianKey returns the median key in lexicographic order (the
	// lower middle for even counts — strings cannot be averaged).
	ScalarMedianKey(keys []string) (string, error)
	// PrefixCount: VectorCount restricted to keys starting with prefix.
	PrefixCount(keys []string, prefix string) ([]GroupCount, error)
}

// Engines returns every string engine: two hash tables, the string ART,
// and the two string sorts.
func Engines() []Engine {
	return []Engine{HashLP(), HashSC(), ART(), MSDRadix(), MultikeyQuick()}
}

// ByName returns the engine with the given label.
func ByName(name string) (Engine, error) {
	for _, e := range Engines() {
		if e.Name() == name {
			return e, nil
		}
	}
	return nil, errors.New("stragg: unknown algorithm " + name)
}

// avgState mirrors agg's algebraic decomposition.
type avgState struct {
	sum   uint64
	count uint64
}

func (s avgState) avg() float64 {
	if s.count == 0 {
		return 0
	}
	return float64(s.sum) / float64(s.count)
}

func valueAt(vals []uint64, i int) uint64 {
	if i < len(vals) {
		return vals[i]
	}
	return 0
}

// --- hash engines -------------------------------------------------------------

type strTable[V any] interface {
	Upsert(key string) *V
	Iterate(fn func(key string, val *V) bool)
	Len() int
}

type hashEngine struct {
	name     string
	newCount func(n int) strTable[uint64]
	newAvg   func(n int) strTable[avgState]
	newList  func(n int) strTable[[]uint64]
}

// HashLP returns the linear-probing string engine ("StrHash_LP").
func HashLP() Engine {
	return &hashEngine{
		name:     "StrHash_LP",
		newCount: func(n int) strTable[uint64] { return strhash.NewLinearProbe[uint64](n) },
		newAvg:   func(n int) strTable[avgState] { return strhash.NewLinearProbe[avgState](n) },
		newList:  func(n int) strTable[[]uint64] { return strhash.NewLinearProbe[[]uint64](n) },
	}
}

// HashSC returns the separate-chaining string engine ("StrHash_SC").
func HashSC() Engine {
	return &hashEngine{
		name:     "StrHash_SC",
		newCount: func(n int) strTable[uint64] { return strhash.NewChained[uint64](n) },
		newAvg:   func(n int) strTable[avgState] { return strhash.NewChained[avgState](n) },
		newList:  func(n int) strTable[[]uint64] { return strhash.NewChained[[]uint64](n) },
	}
}

func (e *hashEngine) Name() string           { return e.name }
func (e *hashEngine) Category() agg.Category { return agg.HashBased }

func (e *hashEngine) VectorCount(keys []string) []GroupCount {
	t := e.newCount(len(keys))
	for _, k := range keys {
		*t.Upsert(k)++
	}
	out := make([]GroupCount, 0, t.Len())
	t.Iterate(func(k string, v *uint64) bool {
		out = append(out, GroupCount{Key: k, Count: *v})
		return true
	})
	return out
}

func (e *hashEngine) VectorAvg(keys []string, vals []uint64) []GroupFloat {
	t := e.newAvg(len(keys))
	for i, k := range keys {
		st := t.Upsert(k)
		st.sum += valueAt(vals, i)
		st.count++
	}
	out := make([]GroupFloat, 0, t.Len())
	t.Iterate(func(k string, st *avgState) bool {
		out = append(out, GroupFloat{Key: k, Value: st.avg()})
		return true
	})
	return out
}

func (e *hashEngine) VectorMedian(keys []string, vals []uint64) []GroupFloat {
	t := e.newList(len(keys))
	for i, k := range keys {
		lst := t.Upsert(k)
		*lst = append(*lst, valueAt(vals, i))
	}
	out := make([]GroupFloat, 0, t.Len())
	t.Iterate(func(k string, lst *[]uint64) bool {
		out = append(out, GroupFloat{Key: k, Value: agg.Median(*lst)})
		return true
	})
	return out
}

func (e *hashEngine) ScalarMedianKey([]string) (string, error) {
	return "", ErrUnsupported
}

func (e *hashEngine) PrefixCount([]string, string) ([]GroupCount, error) {
	return nil, ErrUnsupported
}

// --- tree engine ----------------------------------------------------------------

type treeEngine struct{}

// ART returns the string adaptive-radix-tree engine ("StrART").
func ART() Engine { return treeEngine{} }

func (treeEngine) Name() string           { return "StrART" }
func (treeEngine) Category() agg.Category { return agg.TreeBased }

func (treeEngine) VectorCount(keys []string) []GroupCount {
	t := strtree.New[uint64]()
	for _, k := range keys {
		*t.Upsert(k)++
	}
	out := make([]GroupCount, 0, t.Len())
	t.Iterate(func(k string, v *uint64) bool {
		out = append(out, GroupCount{Key: k, Count: *v})
		return true
	})
	return out
}

func (treeEngine) VectorAvg(keys []string, vals []uint64) []GroupFloat {
	t := strtree.New[avgState]()
	for i, k := range keys {
		st := t.Upsert(k)
		st.sum += valueAt(vals, i)
		st.count++
	}
	out := make([]GroupFloat, 0, t.Len())
	t.Iterate(func(k string, st *avgState) bool {
		out = append(out, GroupFloat{Key: k, Value: st.avg()})
		return true
	})
	return out
}

func (treeEngine) VectorMedian(keys []string, vals []uint64) []GroupFloat {
	t := strtree.New[[]uint64]()
	for i, k := range keys {
		lst := t.Upsert(k)
		*lst = append(*lst, valueAt(vals, i))
	}
	out := make([]GroupFloat, 0, t.Len())
	t.Iterate(func(k string, lst *[]uint64) bool {
		out = append(out, GroupFloat{Key: k, Value: agg.Median(*lst)})
		return true
	})
	return out
}

func (treeEngine) ScalarMedianKey(keys []string) (string, error) {
	if len(keys) == 0 {
		return "", nil
	}
	t := strtree.New[uint64]()
	for _, k := range keys {
		*t.Upsert(k)++
	}
	target := uint64(len(keys)-1) / 2
	var seen uint64
	median := ""
	t.Iterate(func(k string, c *uint64) bool {
		if target < seen+*c {
			median = k
			return false
		}
		seen += *c
		return true
	})
	return median, nil
}

func (treeEngine) PrefixCount(keys []string, prefix string) ([]GroupCount, error) {
	t := strtree.New[uint64]()
	for _, k := range keys {
		*t.Upsert(k)++
	}
	var out []GroupCount
	t.PrefixIterate(prefix, func(k string, v *uint64) bool {
		out = append(out, GroupCount{Key: k, Count: *v})
		return true
	})
	return out, nil
}

// --- sort engines ----------------------------------------------------------------

type sortEngine struct {
	name   string
	sortS  func([]string)
	sortKV func([]strsort.KV)
}

// MSDRadix returns the MSD-radix-sort string engine ("StrMSDRadix").
func MSDRadix() Engine {
	return &sortEngine{
		name:   "StrMSDRadix",
		sortS:  strsort.MSDRadixSort,
		sortKV: strsort.MSDRadixSortKV,
	}
}

// MultikeyQuick returns the Bentley–Sedgewick multikey-quicksort engine
// ("StrMultikeyQuick").
func MultikeyQuick() Engine {
	return &sortEngine{
		name:   "StrMultikeyQuick",
		sortS:  strsort.ThreeWayRadixQuicksort,
		sortKV: strsort.ThreeWayRadixQuicksortKV,
	}
}

func (e *sortEngine) Name() string           { return e.name }
func (e *sortEngine) Category() agg.Category { return agg.SortBased }

func (e *sortEngine) VectorCount(keys []string) []GroupCount {
	if len(keys) == 0 {
		return nil
	}
	buf := append([]string(nil), keys...)
	e.sortS(buf)
	var out []GroupCount
	cur, n := buf[0], uint64(0)
	for _, k := range buf {
		if k != cur {
			out = append(out, GroupCount{Key: cur, Count: n})
			cur, n = k, 0
		}
		n++
	}
	return append(out, GroupCount{Key: cur, Count: n})
}

func (e *sortEngine) VectorAvg(keys []string, vals []uint64) []GroupFloat {
	if len(keys) == 0 {
		return nil
	}
	buf := makeStrKV(keys, vals)
	e.sortKV(buf)
	var out []GroupFloat
	cur := buf[0].K
	var st avgState
	for _, r := range buf {
		if r.K != cur {
			out = append(out, GroupFloat{Key: cur, Value: st.avg()})
			cur, st = r.K, avgState{}
		}
		st.sum += r.V
		st.count++
	}
	return append(out, GroupFloat{Key: cur, Value: st.avg()})
}

func (e *sortEngine) VectorMedian(keys []string, vals []uint64) []GroupFloat {
	if len(keys) == 0 {
		return nil
	}
	buf := makeStrKV(keys, vals)
	e.sortKV(buf)
	var out []GroupFloat
	scratch := make([]uint64, 0, 64)
	start := 0
	for i := 1; i <= len(buf); i++ {
		if i == len(buf) || buf[i].K != buf[start].K {
			scratch = scratch[:0]
			for _, r := range buf[start:i] {
				scratch = append(scratch, r.V)
			}
			out = append(out, GroupFloat{Key: buf[start].K, Value: agg.Median(scratch)})
			start = i
		}
	}
	return out
}

func (e *sortEngine) ScalarMedianKey(keys []string) (string, error) {
	if len(keys) == 0 {
		return "", nil
	}
	buf := append([]string(nil), keys...)
	e.sortS(buf)
	return buf[(len(buf)-1)/2], nil
}

func (e *sortEngine) PrefixCount(keys []string, prefix string) ([]GroupCount, error) {
	if len(keys) == 0 {
		return nil, nil
	}
	buf := append([]string(nil), keys...)
	e.sortS(buf)
	lo := sort.SearchStrings(buf, prefix)
	var out []GroupCount
	for i := lo; i < len(buf); {
		k := buf[i]
		if len(k) < len(prefix) || k[:len(prefix)] != prefix {
			break
		}
		j := i
		for j < len(buf) && buf[j] == k {
			j++
		}
		out = append(out, GroupCount{Key: k, Count: uint64(j - i)})
		i = j
	}
	return out, nil
}

func makeStrKV(keys []string, vals []uint64) []strsort.KV {
	buf := make([]strsort.KV, len(keys))
	for i, k := range keys {
		buf[i].K = k
		buf[i].V = valueAt(vals, i)
	}
	return buf
}
