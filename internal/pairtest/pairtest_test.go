package pairtest

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// TestSignRank pins the interval's order statistics against the binomial
// table of distribution-free 95% confidence intervals for a median.
func TestSignRank(t *testing.T) {
	for _, c := range []struct{ n, k int }{{15, 4}, {30, 10}, {60, 22}, {120, 49}} {
		if got := signRank(c.n); got != c.k {
			t.Errorf("signRank(%d) = %d, want %d", c.n, got, c.k)
		}
	}
}

// TestProtocol pins the run order: one warm-up run per side, then pairs
// alternating which side runs first, a GC before every timed run, and no
// GC before the warm-ups.
func TestProtocol(t *testing.T) {
	var trace strings.Builder
	side := func(name string) func() time.Duration {
		return func() time.Duration {
			trace.WriteString(name)
			return time.Millisecond
		}
	}
	v := compare(1.05, side("M"), side("B"), func() { trace.WriteString("g") }, t.Logf)
	if !v.pass || v.pairs != 15 {
		t.Fatalf("equal sides: %+v, want a pass at 15 pairs", v)
	}
	want := "MB" + strings.Repeat("gMgBgBgM", 7) + "gMgB"
	if got := trace.String(); got != want {
		t.Fatalf("run order\n got %s\nwant %s", got, want)
	}
}

// TestDecision drives the decision with synthetic durations carrying 5%
// lognormal noise per run: a true ratio of 1.00 never fails a budget of
// 1.05, and a true ratio of 1.10 always fails it.
func TestDecision(t *testing.T) {
	const budget, noise, trials = 1.05, 0.05, 50
	for _, c := range []struct {
		ratio float64
		pass  bool
	}{{1.00, true}, {1.10, false}} {
		pairs := map[int]int{}
		for seed := int64(0); seed < trials; seed++ {
			rng := rand.New(rand.NewSource(seed))
			run := func(mean float64) func() time.Duration {
				return func() time.Duration {
					return time.Duration(mean * math.Exp(noise*rng.NormFloat64()) * float64(time.Millisecond))
				}
			}
			v := compare(budget, run(c.ratio), run(1), func() {}, func(string, ...any) {})
			if v.pass != c.pass {
				t.Fatalf("true ratio %.2f, seed %d: pass=%v (median %.4f [%.4f, %.4f] over %d pairs)",
					c.ratio, seed, v.pass, v.median, v.lo, v.hi, v.pairs)
			}
			pairs[v.pairs]++
		}
		t.Logf("true ratio %.2f: trials decided at pair counts %v", c.ratio, pairs)
	}
}
