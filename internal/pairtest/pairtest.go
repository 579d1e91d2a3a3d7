// Package pairtest is the overhead guards' measurement protocol: it
// decides whether one code path stays within a ratio budget of another
// timed on the same machine. Only _test.go files import it.
//
// Pair i times both sides back to back, measured first when i is even and
// baseline first when it is odd, with runtime.GC before every run, so
// machine drift slower than a pair cancels in the pair's ratio
// measured/baseline. The verdict reads the ratios' median and its
// distribution-free 95% interval (sign test): pass when the interval
// sits at or under the budget, fail when it sits over it, and otherwise
// extend from 15 to 30, 60 and 120 pairs, where the median decides. A
// plain "median over budget" rule trips on noise near the budget, and a
// "lower end over budget" rule misses regressions while the interval is
// wider than the budget's margin.
package pairtest

import (
	"math"
	"os"
	"runtime"
	"slices"
	"testing"
	"time"
)

// steps are the pair counts a verdict is tried at.
var steps = []int{15, 30, 60, 120}

// Gate skips t unless MEMAGG_GUARDS=1: wall-clock guards are slow and
// need an idle machine, so scripts/ci.sh runs them in one step of their
// own and a plain `go test ./...` skips them.
func Gate(t testing.TB) {
	t.Helper()
	if os.Getenv("MEMAGG_GUARDS") != "1" {
		t.Skip("set MEMAGG_GUARDS=1 to run the overhead guards")
	}
}

// Run fails t when measured costs more than budget times baseline. Each
// side performs one run and returns the time it measured, so set-up the
// ratio should not include stays outside the returned duration.
func Run(t testing.TB, budget float64, measured, baseline func() time.Duration) {
	t.Helper()
	v := compare(budget, measured, baseline, runtime.GC, t.Logf)
	if !v.pass {
		t.Fatalf("measured/baseline median %.4f, 95%% interval [%.4f, %.4f] over %d pairs: over budget %.2f",
			v.median, v.lo, v.hi, v.pairs, budget)
	}
}

// verdict is compare's decision and the statistics it rests on.
type verdict struct {
	pass           bool
	pairs          int
	median, lo, hi float64
}

// compare is Run with gc and logging injected: one warm-up run per side,
// then pairs until a verdict, logging every step.
func compare(budget float64, measured, baseline func() time.Duration, gc func(), logf func(string, ...any)) verdict {
	sides := [2]func() time.Duration{measured, baseline}
	for _, side := range sides {
		side()
	}
	var (
		ratios []float64
		v      verdict
	)
	for _, n := range steps {
		for i := len(ratios); i < n; i++ {
			var d [2]float64
			for j := range d {
				s := (i + j) % 2 // pair i runs side i%2 first
				gc()
				d[s] = float64(sides[s]())
			}
			ratios = append(ratios, d[0]/d[1])
		}
		v = summarize(ratios)
		if v.hi <= budget || v.lo > budget || n == steps[len(steps)-1] {
			break
		}
		logf("%d pairs: median %.4f, 95%% interval [%.4f, %.4f] straddles budget %.2f; extending",
			n, v.median, v.lo, v.hi, budget)
	}
	// An interval clear of the budget puts the median on the same side,
	// and at the last step the median decides alone.
	v.pass = v.median <= budget
	logf("%d pairs: median %.4f, 95%% interval [%.4f, %.4f], budget %.2f: pass=%v",
		v.pairs, v.median, v.lo, v.hi, budget, v.pass)
	return v
}

// summarize returns the median of ratios and its sign-test interval.
func summarize(ratios []float64) verdict {
	s := slices.Clone(ratios)
	slices.Sort(s)
	n := len(s)
	k := signRank(n)
	med := s[n/2]
	if n%2 == 0 {
		med = (s[n/2-1] + s[n/2]) / 2
	}
	return verdict{pairs: n, median: med, lo: s[k-1], hi: s[n-k]}
}

// signRank returns the largest k with P(Bin(n, 1/2) < k) <= 2.5%: the
// k-th and (n+1-k)-th smallest of n samples bound their median with at
// least 95% confidence, whatever the samples' distribution.
func signRank(n int) int {
	term := math.Pow(0.5, float64(n)) // P(B = 0)
	cdf := 0.0
	for j := 0; ; j++ {
		if cdf += term; cdf > 0.025 { // cdf is P(B <= j)
			return j
		}
		term *= float64(n-j) / float64(j+1)
	}
}
