package harness

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"memagg/internal/agg"
	"memagg/internal/dataset"
)

// TestRunJSON runs aggbench -json's report at a size that takes Hash_RX's
// partitioned path: one row per engine, each with the reference group
// count and a build/iterate split.
func TestRunJSON(t *testing.T) {
	var buf bytes.Buffer
	cfg := Config{
		N:             1 << 16,
		Seed:          7,
		Out:           &buf,
		Threads:       []int{2},
		Datasets:      []dataset.Kind{dataset.RseqShf},
		Cardinalities: []int{5000},
	}
	if err := RunJSON(cfg); err != nil {
		t.Fatal(err)
	}
	var rep JSONReport
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatalf("report is not JSON: %v\n%s", err, buf.String())
	}
	if rep.Query != "Q1" || rep.N != cfg.N || rep.Dataset != dataset.RseqShf.String() || rep.Cardinality != 5000 || rep.Seed != 7 {
		t.Fatalf("report conditions = %+v", rep)
	}

	type engineAt struct {
		name    string
		threads int
	}
	var want []engineAt
	for _, e := range agg.Engines() {
		want = append(want, engineAt{e.Name(), 1})
	}
	for _, e := range agg.ConcurrentEngines(2) {
		want = append(want, engineAt{e.Name(), 2})
	}
	want = append(want, engineAt{"Hash_PLAT", 2}, engineAt{"Adaptive", 1})
	if len(rep.Engines) != len(want) {
		t.Fatalf("%d rows, want %d: %+v", len(rep.Engines), len(want), rep.Engines)
	}

	groups := map[uint64]bool{}
	for _, k := range keysFor(cfg.withDefaults(), dataset.RseqShf, 5000) {
		groups[k] = true
	}
	for i, r := range rep.Engines {
		if (engineAt{r.Algorithm, r.Threads}) != want[i] {
			t.Fatalf("row %d is %s×%d, want %s×%d", i, r.Algorithm, r.Threads, want[i].name, want[i].threads)
		}
		if r.Groups != len(groups) {
			t.Fatalf("%s: %d groups, want %d", r.Algorithm, r.Groups, len(groups))
		}
		if !r.PhaseSplit || r.IterateMS <= 0 || r.BuildMS <= 0 {
			t.Fatalf("%s: no phase split: %+v", r.Algorithm, r)
		}
		if math.Abs(r.TotalMS-(r.BuildMS+r.IterateMS)) > 1e-9 {
			t.Fatalf("%s: total %v != build %v + iterate %v", r.Algorithm, r.TotalMS, r.BuildMS, r.IterateMS)
		}
	}
}
