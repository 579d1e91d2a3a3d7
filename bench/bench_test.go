package main

import (
	"crypto/sha256"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"memagg"
	"memagg/internal/dataset"
)

func durations(ms ...int) []time.Duration {
	out := make([]time.Duration, len(ms))
	for i, v := range ms {
		out[i] = time.Duration(v) * time.Millisecond
	}
	return out
}

func TestPercentile(t *testing.T) {
	d := durations(5, 1, 4, 2, 3)
	for _, c := range []struct {
		p    float64
		want int
	}{{50, 3}, {100, 5}, {20, 1}, {21, 2}, {90, 5}, {1, 1}} {
		if got := percentile(d, c.p); got != time.Duration(c.want)*time.Millisecond {
			t.Errorf("p%v = %v, want %d ms", c.p, got, c.want)
		}
	}
	if d[0] != 5*time.Millisecond {
		t.Error("percentile reordered its input")
	}
	if percentile(nil, 50) != 0 {
		t.Error("empty sample: want 0")
	}
	if got := percentile(durations(1, 2, 3, 4), 50); got != 2*time.Millisecond {
		t.Errorf("even count: nearest-rank p50 = %v, want 2 ms", got)
	}
}

func TestHighestSupported(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{9, 0, false},
		{39, 0, false}, // p75 of 39 leaves 9 beyond
		{40, 75, true}, // p75 of 40 leaves exactly 10
		{100, 90, true},
		{199, 90, true},
		{200, 95, true},
		{1000, 99, true},
		{1220, 99, true},
		{10000, 99.9, true},
		{100000, 99.99, true},
	} {
		p, ok := highestSupported(c.n)
		if p != c.want || ok != c.ok {
			t.Errorf("n=%d: got p%v ok=%v, want p%v ok=%v", c.n, p, ok, c.want, c.ok)
		}
		if ok {
			if beyond := c.n - nearestRank(p, c.n); beyond < 10 {
				t.Errorf("n=%d: p%v has only %d samples beyond it", c.n, p, beyond)
			}
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q2, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q2 != 4 || q3 != 12 {
		t.Errorf("quartiles = %v %v %v, want 1.5 4 12", q1, q2, q3)
	}
}

func TestScheduleDueTimes(t *testing.T) {
	p := &pool{chunkRows: 32768}
	if got, want := p.interval(2_000_000), 16384*time.Microsecond; got != want {
		t.Errorf("interval at 2M rows/s = %v, want %v", got, want)
	}
	p.chunkRows = 8192
	if got, want := p.interval(250_000), 32768*time.Microsecond; got != want {
		t.Errorf("interval at 250k rows/s = %v, want %v", got, want)
	}
	s := schedule{start: time.Unix(100, 0), interval: 8 * time.Millisecond}
	for i := 0; i < 1000; i += 333 {
		if got, want := s.due(i).Sub(s.start), time.Duration(i)*8*time.Millisecond; got != want {
			t.Errorf("due(%d) = start + %v, want start + %v", i, got, want)
		}
	}
}

func TestCheckPacing(t *testing.T) {
	good := pacedRun{late: durations(0, 0, 0, 2), offered: time.Second, wall: 1005 * time.Millisecond}
	if err := good.checkPacing(); err != nil {
		t.Errorf("on schedule: %v", err)
	}
	late := pacedRun{late: durations(2, 2, 2, 0), offered: time.Second, wall: time.Second, interval: 8 * time.Millisecond}
	if late.checkPacing() == nil {
		t.Error("median send 2 ms late on an 8 ms spacing: want an error")
	}
	late.interval = 40 * time.Millisecond
	if err := late.checkPacing(); err != nil {
		t.Errorf("median send 2 ms late on a 40 ms spacing: %v", err)
	}
	slow := pacedRun{late: durations(0, 0), offered: time.Second, wall: 1020 * time.Millisecond}
	if slow.checkPacing() == nil {
		t.Error("98% of the offered rate: want an error")
	}
}

func TestParseProcStatCPU(t *testing.T) {
	// Field 2 may hold spaces and parentheses; utime=700 and stime=35 ticks.
	stat := "4242 (agg) serve (x)) S 1 4242 4242 0 -1 4194560 9000 0 0 0 700 35 0 0 20 0 9 0 12345 1000000 2000 18446744073709551615\n"
	got, err := parseProcStatCPU(stat)
	if err != nil {
		t.Fatal(err)
	}
	if want := 735 * clockTick; got != want {
		t.Errorf("cpu = %v, want %v", got, want)
	}
	for _, bad := range []string{"", "1 (x) S 1 2", "1 no-parens S"} {
		if _, err := parseProcStatCPU(bad); err == nil {
			t.Errorf("parseProcStatCPU(%q): want an error", bad)
		}
	}
	// And the real thing: this process has used some CPU by now.
	b, err := os.ReadFile("/proc/self/stat")
	if err != nil {
		t.Skip("no /proc")
	}
	if _, err := parseProcStatCPU(string(b)); err != nil {
		t.Errorf("/proc/self/stat: %v", err)
	}
}

func TestParseVmHWM(t *testing.T) {
	status := "Name:\taggserve\nVmPeak:\t 2000000 kB\nVmHWM:\t  115712 kB\nVmRSS:\t   90000 kB\n"
	got, err := parseVmHWM(status)
	if err != nil {
		t.Fatal(err)
	}
	if got != 113 {
		t.Errorf("VmHWM = %v MB, want 113", got)
	}
	if _, err := parseVmHWM("Name:\tx\n"); err == nil {
		t.Error("no VmHWM line: want an error")
	}
	if _, err := parseVmHWM("VmHWM:\t12 MB\n"); err == nil {
		t.Error("unit other than kB: want an error")
	}
}

func TestParseProm(t *testing.T) {
	text := `# HELP memagg_stream_seals_total Delta seals.
# TYPE memagg_stream_seals_total counter
memagg_stream_seals_total 12
memagg_http_request_seconds_bucket{route="/ingest",le="0.001"} 7
memagg_http_request_seconds_sum{route="/ingest"} 0.5
memagg_http_request_seconds_count{route="/ingest"} 10
`
	before := parseProm(text)
	if len(before) != 3 {
		t.Fatalf("parsed %d series, want 3 (bucket lines dropped): %v", len(before), before)
	}
	after := parseProm(`memagg_stream_seals_total 20
memagg_http_request_seconds_sum{route="/ingest"} 0.9
memagg_http_request_seconds_count{route="/ingest"} 14
`)
	d := after.since(before)
	if d["memagg_stream_seals_total"] != 8 {
		t.Errorf("seals grew by %v, want 8", d["memagg_stream_seals_total"])
	}
	d.add(d)
	if got := d.histMean("memagg_http_request_seconds", `{route="/ingest"}`); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("mean = %v s, want 0.1", got)
	}
	if got := d.histMean("memagg_wal_fsync_seconds", ""); got != 0 {
		t.Errorf("histogram that recorded nothing: mean = %v, want 0", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "refresh", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "GET", Start: 5, End: 35},
		{ID: 3, Parent: 1, Name: "GET", Start: 40, End: 90},
	}
	self := selfTimes(spans)
	if self["refresh"] != 20 || self["GET"] != 80 {
		t.Errorf("self times = %v, want refresh 20ns GET 80ns", self)
	}
	var tr *tracer
	if id := tr.begin("x", 0, 0); id != 0 {
		t.Error("nil tracer handed out a span id")
	}
	tr.end(0)
	if err := tr.write(t.TempDir(), "w"); err != nil {
		t.Errorf("nil tracer write: %v", err)
	}
}

// digest hashes every chunk body in order: the "same seed, same bytes"
// witness.
func digest(p *pool) string {
	h := sha256.New()
	for _, b := range p.bodies {
		h.Write(b)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func TestPoolDeterminism(t *testing.T) {
	a := newPool(dataset.RseqShf, 4, 1024, 256, 7)
	b := newPool(dataset.RseqShf, 4, 1024, 256, 7)
	c := newPool(dataset.RseqShf, 4, 1024, 256, 8)
	if digest(a) != digest(b) {
		t.Error("same seed, different chunk bodies")
	}
	if digest(a) == digest(c) {
		t.Error("different seeds, identical chunk bodies")
	}
	if a.rows() != 4096 || len(a.bodies) != 4 {
		t.Errorf("pool holds %d rows in %d bodies, want 4096 in 4", a.rows(), len(a.bodies))
	}
	pa, pb, pc := newPermPool(3, 512, 7), newPermPool(3, 512, 7), newPermPool(3, 512, 9)
	if digest(pa) != digest(pb) || digest(pa) == digest(pc) {
		t.Error("permutation pool: seed does not determine the bodies")
	}
	for _, ch := range pa.chunks {
		seen := make(map[uint64]bool)
		for i, k := range ch.Keys {
			seen[k] = true
			if ch.Vals[i] != liveValue(k) {
				t.Fatalf("key %d carries value %d, want %d", k, ch.Vals[i], liveValue(k))
			}
		}
		if len(seen) != 512 {
			t.Fatalf("permutation chunk covers %d keys, want 512", len(seen))
		}
	}
}

func TestChecksumOracleAgainstMap(t *testing.T) {
	const groups = 300
	keys := dataset.Spec{Kind: dataset.Zipf, N: 5000, Cardinality: groups, Seed: 3}.Keys()
	ref := make(map[uint64]uint64)
	for _, k := range keys {
		ref[k]++
	}
	var want checksum
	rows := make([]memagg.GroupCount, 0, len(ref))
	for k, n := range ref {
		want.add(k, n)
		rows = append(rows, memagg.GroupCount{Key: k, Count: n})
	}
	if got := checksumKeys(keys, groups); got != want {
		t.Errorf("checksumKeys = %+v, map says %+v", got, want)
	}
	if got := checksumCounts(rows); got != want {
		t.Errorf("checksumCounts = %+v, map says %+v", got, want)
	}
	if want.Rows != uint64(len(keys)) || want.Groups != len(ref) {
		t.Errorf("checksum counts %d rows in %d groups, want %d in %d", want.Rows, want.Groups, len(keys), len(ref))
	}
	// One count moved from one key to another: same rows, same groups.
	rows[0].Count++
	rows[1].Count--
	if rows[1].Count > 0 && checksumCounts(rows) == want {
		t.Error("checksum missed a count that moved between keys")
	}

	// The tally is the same oracle, chunk by chunk.
	p := newPool(dataset.RseqShf, 4, 256, 64, 5)
	tl := newTally(p.groups)
	var all []uint64
	for _, c := range p.chunks {
		tl.add(c, 2)
		all = append(all, c.Keys...)
		all = append(all, c.Keys...)
	}
	if tl.checksum() != checksumKeys(all, p.groups) {
		t.Error("tally of chunks sent twice disagrees with the checksum of their keys")
	}
}

func TestDashOracleWatermarks(t *testing.T) {
	pre := newPool(dataset.RseqShf, 2, dashChunkRows, dashGroups, 1)
	o := newDashOracle(pre)
	if _, err := o.liveChunks(o.baseRows - 1); err == nil {
		t.Error("watermark below the preload: want an error")
	}
	if _, err := o.liveChunks(o.baseRows + 5); err == nil {
		t.Error("watermark off a chunk boundary: want an error")
	}
	n, err := o.liveChunks(o.baseRows + 3*dashChunkRows)
	if err != nil || n != 3 {
		t.Fatalf("liveChunks = %d, %v; want 3", n, err)
	}
	c0, s0 := o.at(7, 0)
	c3, s3 := o.at(7, 3)
	if c3 != c0+3 || s3 != s0+3*liveValue(7) {
		t.Errorf("hot key after 3 live chunks: (%d, %d), want (%d, %d)", c3, s3, c0+3, s0+3*liveValue(7))
	}
	if c, s := o.at(dashChunkRows+1, 3); c != o.base.count[dashChunkRows+1] || s != o.base.sum[dashChunkRows+1] {
		t.Error("a cold key moved with the live chunks")
	}
}

func TestCopyDir(t *testing.T) {
	src, dst := t.TempDir(), filepath.Join(t.TempDir(), "copy")
	if err := os.MkdirAll(filepath.Join(src, "wal"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(src, "wal", "seg"), []byte("abc"), 0o644); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ { // the second copy replaces the first
		if err := copyDir(src, dst); err != nil {
			t.Fatal(err)
		}
	}
	b, err := os.ReadFile(filepath.Join(dst, "wal", "seg"))
	if err != nil || string(b) != "abc" {
		t.Errorf("copied file holds %q, %v", b, err)
	}
	if dirBytes(dst) != 3 {
		t.Errorf("dirBytes = %d, want 3", dirBytes(dst))
	}
}

// TestBenchmarkJSONMatchesCatalogue keeps <root>/BENCHMARK.json and the
// metric catalogue this package prints in step.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	root, err := findRoot("")
	if err != nil {
		t.Skip(err)
	}
	spec, err := readBenchmarkJSON(root)
	if err != nil {
		t.Skip("no BENCHMARK.json: ", err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the driver has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := spec.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json says %q (%s), the driver %q (%s)", i, got.Name, got.Why, w.name, w.why)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the driver prints %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		if got := spec.EndToEnd[i]; got.Name != m.Name || got.Unit != m.Unit {
			t.Errorf("end-to-end %d: BENCHMARK.json says %s [%s], the driver %s [%s]", i, got.Name, got.Unit, m.Name, m.Unit)
		}
	}
	layers := perLayer()
	if len(spec.PerLayer) != len(layers) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the driver prints %d", len(spec.PerLayer), len(layers))
	}
	for i, m := range layers {
		if got := spec.PerLayer[i]; got.Name != m.Name || got.Unit != m.Unit {
			t.Errorf("per-layer %d: BENCHMARK.json says %s [%s], the driver %s [%s]", i, got.Name, got.Unit, m.Name, m.Unit)
		}
	}
}

// TestSmoke runs every workload once at its smallest size, untraced and
// traced, against a real aggserve. It builds and starts child processes and
// takes about a minute, so it only runs when BENCH_SMOKE is set:
//
//	cd bench && BENCH_SMOKE=1 go test -run TestSmoke -v
func TestSmoke(t *testing.T) {
	if os.Getenv("BENCH_SMOKE") == "" {
		t.Skip("set BENCH_SMOKE=1 to run the workloads")
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			if err := run(w.name, 1, 1, trace, "", false, ""); err != nil {
				t.Errorf("%s trace=%v: %v", w.name, trace, err)
			}
		}
	}
}
