// Package harness reproduces the paper's evaluation section: one
// experiment per figure and table, each regenerating the corresponding
// rows/series (Section 5). Absolute numbers differ from the paper — this
// is Go on a different machine, and times are wall-clock nanoseconds
// rather than CPU cycles — but each experiment reports the same grid of
// conditions so the paper's comparisons (who wins, by what factor, where
// the crossovers fall) can be checked directly. EXPERIMENTS.md records a
// run of every experiment against the paper's findings.
package harness

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"text/tabwriter"
	"time"

	"memagg/internal/dataset"
)

// Config controls an experiment run. The zero value is usable: defaults
// are laptop-scale (the paper's 100M-record datasets shrink to 1M so a
// full suite finishes in minutes; raise N to approach the paper's scale).
type Config struct {
	// N is the dataset size (paper: 100M; default 1M).
	N int
	// Seed drives every dataset generator (default 42).
	Seed uint64
	// Out receives the experiment tables (default os.Stdout).
	Out io.Writer
	// Threads are the thread counts swept by the concurrency experiments
	// (default 1..min(8, GOMAXPROCS)).
	Threads []int
	// Datasets restricts the distribution sweeps (default: all of Table 4).
	Datasets []dataset.Kind
	// Cardinalities restricts the group-by sweeps (default: the paper's
	// 10^2..10^7 clipped to N).
	Cardinalities []int
}

func (c Config) withDefaults() Config {
	if c.N <= 0 {
		c.N = 1_000_000
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.Out == nil {
		c.Out = os.Stdout
	}
	if len(c.Threads) == 0 {
		max := runtime.GOMAXPROCS(0)
		if max > 8 {
			max = 8
		}
		for p := 1; p <= max; p++ {
			c.Threads = append(c.Threads, p)
		}
	}
	if len(c.Datasets) == 0 {
		c.Datasets = dataset.Kinds
	}
	if len(c.Cardinalities) == 0 {
		for _, card := range []int{100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000} {
			if card <= c.N {
				c.Cardinalities = append(c.Cardinalities, card)
			}
		}
	}
	return c
}

// lowHighCards picks the experiment pair the paper calls "low" (10^3) and
// "high" (10^6) cardinality, clipped to the configured dataset size.
func (c Config) lowHighCards() (int, int) {
	low := 1000
	if low > c.N {
		low = c.N
	}
	high := 1_000_000
	if high > c.N/10 {
		high = c.N / 10
	}
	if high < low {
		high = low
	}
	return low, high
}

// Experiment is one reproducible figure or table.
type Experiment struct {
	Name  string // harness id, e.g. "fig4"
	Title string // what the paper calls it
	Run   func(cfg Config) error
}

// Experiments lists every experiment in paper order.
func Experiments() []Experiment {
	return []Experiment{
		{"fig2", "Figure 2: sort algorithm microbenchmark", Fig2SortMicro},
		{"fig3", "Figure 3: data structure microbenchmark (build/iterate)", Fig3StructMicro},
		{"fig4", "Figure 4: vector aggregation Q1 (COUNT) across cardinalities", Fig4Q1},
		{"fig5", "Figure 5: vector aggregation Q3 (MEDIAN) across cardinalities", Fig5Q3},
		{"fig6", "Figure 6: cache and TLB misses (simulated hierarchy)", Fig6MemSim},
		{"tab6", "Table 6: peak memory usage, Q1", Tab6MemQ1},
		{"tab7", "Table 7: peak memory usage, Q3", Tab7MemQ3},
		{"fig7", "Figure 7: Q1 across key distributions", Fig7Distrib},
		{"fig8", "Figure 8: range-search aggregation Q7", Fig8Range},
		{"fig9", "Figure 9: scalar aggregation Q6 (MEDIAN)", Fig9Q6},
		{"fig10", "Figure 10: parallel sort microbenchmark", Fig10ParSort},
		{"fig11", "Figure 11: multithreaded scaling, Q1/Q3", Fig11Scaling},
		{"q2", "Extension: the Q2 (AVG) grid the paper omitted for space", ExtQ2},
		{"ext", "Extension: Hash_PLAT vs shared structures; Adaptive vs fixed routes", ExtEngines},
		{"rx", "Extension: parallel designs across cardinality (Hash_RX crossover)", ExtRadix},
		{"glb", "Extension: global shared table vs radix partitioning (Hash_GLB crossover)", ExtGLB},
		{"alloc", "Extension: allocator dimension (D6) — go-runtime vs arena", ExtAlloc},
		{"strings", "Extension: string-key backends on a word-count workload", ExtStrings},
	}
}

// Run executes the named experiment ("all" runs the full suite).
func Run(name string, cfg Config) error {
	cfg = cfg.withDefaults()
	if name == "all" {
		for _, e := range Experiments() {
			if err := runOne(e, cfg); err != nil {
				return err
			}
		}
		return nil
	}
	for _, e := range Experiments() {
		if e.Name == name {
			return runOne(e, cfg)
		}
	}
	names := make([]string, 0, len(Experiments()))
	for _, e := range Experiments() {
		names = append(names, e.Name)
	}
	sort.Strings(names)
	return fmt.Errorf("harness: unknown experiment %q (known: %v, all)", name, names)
}

func runOne(e Experiment, cfg Config) error {
	fmt.Fprintf(cfg.Out, "=== %s — %s (n=%d, seed=%d) ===\n", e.Name, e.Title, cfg.N, cfg.Seed)
	start := time.Now()
	err := e.Run(cfg)
	fmt.Fprintf(cfg.Out, "--- %s done in %v ---\n\n", e.Name, time.Since(start).Round(time.Millisecond))
	return err
}

// --- shared helpers ----------------------------------------------------------

// timeIt measures one execution of f.
func timeIt(f func()) time.Duration {
	start := time.Now()
	f()
	return time.Since(start)
}

// newTable starts an aligned output table with the given header cells.
func newTable(out io.Writer, header ...string) *tabwriter.Writer {
	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	for i, h := range header {
		if i > 0 {
			fmt.Fprint(tw, "\t")
		}
		fmt.Fprint(tw, h)
	}
	fmt.Fprintln(tw)
	return tw
}

// ms renders a duration in milliseconds with two decimals.
func ms(d time.Duration) string {
	return fmt.Sprintf("%.2f", float64(d.Nanoseconds())/1e6)
}

// keysFor generates the key column for one experimental cell.
func keysFor(cfg Config, kind dataset.Kind, card int) []uint64 {
	return dataset.Spec{Kind: kind, N: cfg.N, Cardinality: card, Seed: cfg.Seed}.Keys()
}
