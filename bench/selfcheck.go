package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// benchmarkJSON is the part of <root>/BENCHMARK.json the self-check reads.
type benchmarkJSON struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(root string) (benchmarkJSON, error) {
	var b benchmarkJSON
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return b, err
	}
	err = json.Unmarshal(raw, &b)
	return b, err
}

// runSelf runs one workload in a child process of this same binary (a run
// is a process: fresh heap, fresh server) and parses its result line.
func runSelf(root, workload string, seed uint64, seconds int, trace bool) (result, error) {
	self, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	t := "0"
	if trace {
		t = "1"
	}
	cmd := exec.Command(self, "-root", root, "-workload", workload,
		"-seed", strconv.FormatUint(seed, 10), "-seconds", strconv.Itoa(seconds), "-trace", t)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return result{}, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return result{}, fmt.Errorf("%s seed %d: last line is not a result: %w", workload, seed, err)
	}
	return res, nil
}

// quartiles returns Q1, the median and Q3 the way Python's
// statistics.quantiles(v, n=4) does (the "exclusive" method) — the rule the
// benchmark's acceptance uses.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

// selfCheck runs two sets of runs per workload, every run on its own seed,
// and prints for every workload and end-to-end metric each set's median and
// quartile spread and the set-to-set gap in the worsening direction, next
// to the bound BENCHMARK.json fixes. It fails if any gap or spread exceeds
// its bound or any run had a failed operation.
func selfCheck(root string, seed uint64, seconds int) error {
	const runs = 5 // per set
	spec, err := readBenchmarkJSON(root)
	if err != nil {
		return err
	}
	fmt.Printf("selfcheck: 2 sets x %d runs per workload, seeds from %d, %d s, nproc %d, %s\n",
		runs, seed, seconds, runtime.NumCPU(), runtime.Version())
	fmt.Printf("%-15s %-15s %13s %7s %13s %7s %8s %6s  %s\n",
		"workload", "metric", "median A", "iqr A", "median B", "iqr B", "B worse", "bound", "verdict")
	bad := 0
	for _, w := range workloads {
		var sets [2]map[string][]float64
		for s := range sets {
			sets[s] = make(map[string][]float64)
			for i := 0; i < runs; i++ {
				res, err := runSelf(root, w.name, seed+uint64(s*runs+i), seconds, false)
				if err != nil {
					return err
				}
				if res.Failed > 0 {
					fmt.Printf("%-15s seed %d: %d of %d operations failed\n", w.name, seed+uint64(s*runs+i), res.Failed, res.Attempted)
					bad++
				}
				for name, m := range res.Metrics {
					sets[s][name] = append(sets[s][name], m.Value)
				}
			}
		}
		for _, m := range spec.EndToEnd {
			a1, a2, a3 := quartiles(sets[0][m.Name])
			b1, b2, b3 := quartiles(sets[1][m.Name])
			worse := (b2 - a2) / a2
			if m.Better == "higher" {
				worse = -worse
			}
			iqrA, iqrB := (a3-a1)/a2, (b3-b1)/b2
			verdict := "ok"
			switch {
			case worse > m.Bound:
				verdict = "GAP OVER BOUND"
				bad++
			case m.Name != "setup_s" && max(iqrA, iqrB) > m.Bound:
				verdict = "SPREAD OVER BOUND"
				bad++
			case m.Bound < 2*worse:
				verdict = "bound < 2x gap"
			}
			fmt.Printf("%-15s %-15s %13.6g %6.2f%% %13.6g %6.2f%% %+7.2f%% %5.0f%%  %s\n",
				w.name, m.Name, a2, 100*iqrA, b2, 100*iqrB, 100*worse, 100*m.Bound, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("selfcheck: %d findings", bad)
	}
	return nil
}

// trajectoryPoint is one BENCH_<n>.json: every end-to-end and per-layer
// metric of every workload on one commit.
type trajectoryPoint struct {
	Commit    string                       `json:"commit"`
	Date      string                       `json:"date"`
	Seed      uint64                       `json:"seed"`
	Seconds   int                          `json:"seconds"`
	NProc     int                          `json:"nproc"`
	GoVersion string                       `json:"go_version"`
	Workloads map[string]trajectoryResults `json:"workloads"`
}

type trajectoryResults struct {
	EndToEnd result `json:"end_to_end"`
	PerLayer result `json:"per_layer"`
}

// writeTrajectory makes one untraced and one traced run of every workload
// and writes the point to path.
func writeTrajectory(root, path string, seed uint64, seconds int) error {
	pt := trajectoryPoint{
		Commit:    gitCommit(root),
		Date:      time.Now().UTC().Format(time.RFC3339),
		Seed:      seed,
		Seconds:   seconds,
		NProc:     runtime.NumCPU(),
		GoVersion: runtime.Version(),
		Workloads: make(map[string]trajectoryResults),
	}
	for _, w := range workloads {
		e2e, err := runSelf(root, w.name, seed, seconds, false)
		if err != nil {
			return err
		}
		layers, err := runSelf(root, w.name, seed, seconds, true)
		if err != nil {
			return err
		}
		pt.Workloads[w.name] = trajectoryResults{EndToEnd: e2e, PerLayer: layers}
		fmt.Fprintf(os.Stderr, "trajectory: %s done\n", w.name)
	}
	b, err := json.MarshalIndent(pt, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// gitCommit names the commit the point was measured on: HEAD, marked
// "+uncommitted" when the tree differs from it; "unknown" outside a git
// checkout (the driver's checkouts are not repositories).
func gitCommit(root string) string {
	head, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	commit := strings.TrimSpace(string(head))
	if st, err := exec.Command("git", "-C", root, "status", "--porcelain").Output(); err == nil && len(bytes.TrimSpace(st)) > 0 {
		commit += "+uncommitted"
	}
	return commit
}
