package harness

import (
	"encoding/json"
	"time"

	"memagg/internal/agg"
)

// JSONRow is one engine's Q1 timing in a RunJSON report: the build and
// iterate durations the engine's phase histograms record (agg.CountPhases).
// PhaseSplit is false only when Hash_RX takes its serial fallback (fewer
// than 32 Ki rows or one worker), which fuses the phases: TotalMS is then
// the only meaningful number (BuildMS repeats it, IterateMS is zero).
type JSONRow struct {
	Algorithm  string  `json:"algorithm"`
	Threads    int     `json:"threads"`
	BuildMS    float64 `json:"build_ms"`
	IterateMS  float64 `json:"iterate_ms"`
	TotalMS    float64 `json:"total_ms"`
	Groups     int     `json:"groups"`
	PhaseSplit bool    `json:"phase_split"`
}

// JSONReport is the single object RunJSON emits: the run's conditions plus
// one row per engine.
type JSONReport struct {
	Query       string    `json:"query"`
	N           int       `json:"n"`
	Dataset     string    `json:"dataset"`
	Cardinality int       `json:"cardinality"`
	Seed        uint64    `json:"seed"`
	Engines     []JSONRow `json:"engines"`
}

// RunJSON measures Q1 with the build/iterate phase split over every serial
// engine plus the concurrent and extension engines at the widest configured
// thread count, and writes the result to cfg.Out as one JSON object —
// machine-readable output for scripting (aggbench -json). The cell is the
// first configured dataset and cardinality.
func RunJSON(cfg Config) error {
	cfg = cfg.withDefaults()
	warm()
	kind := cfg.Datasets[0]
	card := cfg.Cardinalities[0]
	p := maxThreads(cfg)
	keys := keysFor(cfg, kind, card)

	report := JSONReport{
		Query:       "Q1",
		N:           cfg.N,
		Dataset:     kind.String(),
		Cardinality: card,
		Seed:        cfg.Seed,
	}
	addRow := func(e agg.Engine, threads int) {
		rows, build, iterate, ok := agg.CountPhases(e, keys)
		report.Engines = append(report.Engines, JSONRow{
			Algorithm:  e.Name(),
			Threads:    threads,
			BuildMS:    msFloat(build),
			IterateMS:  msFloat(iterate),
			TotalMS:    msFloat(build + iterate),
			Groups:     len(rows),
			PhaseSplit: ok,
		})
	}
	for _, e := range agg.Engines() {
		addRow(e, 1)
	}
	for _, e := range agg.ConcurrentEngines(p) {
		addRow(e, p)
	}
	addRow(agg.HashPLAT(p), p)
	addRow(agg.Adaptive(), 1)

	enc := json.NewEncoder(cfg.Out)
	enc.SetIndent("", "  ")
	return enc.Encode(report)
}

func msFloat(d time.Duration) float64 {
	return float64(d.Nanoseconds()) / 1e6
}
