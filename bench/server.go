package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"memagg"
)

// opDeadline is the per-operation deadline: an op that takes longer counts
// as failed.
const opDeadline = 5 * time.Second

// clockTick is the unit of /proc/<pid>/stat's utime and stime: USER_HZ,
// which Linux fixes at 100 for every architecture Go supports.
const clockTick = 10 * time.Millisecond

// buildAggserve compiles cmd/aggserve from the checkout into
// <root>/.bench_build/bin and returns the binary's path and how long the
// build took (reported as driver.build_s, excluded from setup_s).
func buildAggserve(root string) (string, time.Duration, error) {
	bin := filepath.Join(root, ".bench_build", "bin", "aggserve")
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/aggserve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("go build ./cmd/aggserve: %v\n%s", err, out)
	}
	return bin, time.Since(start), nil
}

// fleet tracks a run's live aggserve children so that any exit path can
// kill them.
type fleet struct {
	mu   sync.Mutex
	live map[*server]struct{}
}

// killAll SIGKILLs and reaps every child still running.
func (f *fleet) killAll() {
	f.mu.Lock()
	live := make([]*server, 0, len(f.live))
	for s := range f.live {
		live = append(live, s)
	}
	f.mu.Unlock()
	for _, s := range live {
		s.kill()
	}
}

// server is one aggserve child process on a private loopback port.
type server struct {
	fleet  *fleet
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:<port>
	log    bytes.Buffer
	exited chan struct{} // closed once Wait has returned
	client *http.Client  // connection 1: everything but dash_refresh's reads
}

// freePort asks the kernel for an unused loopback port. aggserve logs the
// address it was given, not the one it bound, so ":0" cannot be passed down.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// newClient returns an HTTP client that holds exactly one keep-alive
// connection and enforces the per-op deadline.
func newClient() *http.Client {
	return &http.Client{
		Timeout: opDeadline,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}

// start launches aggserve with the given extra flags and returns once
// GET /v1/stats answers 200 — the moment a durable server has finished
// recovery. ready is the time from exec to that first 200.
func (f *fleet) start(bin string, args ...string) (s *server, ready time.Duration, err error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	s = &server{fleet: f, base: "http://" + addr, exited: make(chan struct{}), client: newClient()}
	s.cmd = exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	s.cmd.Stdout = &s.log
	s.cmd.Stderr = &s.log
	start := time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, 0, err
	}
	f.mu.Lock()
	if f.live == nil {
		f.live = make(map[*server]struct{})
	}
	f.live[s] = struct{}{}
	f.mu.Unlock()
	go func() {
		_ = s.cmd.Wait() // the exit status is read from ProcessState where it matters
		close(s.exited)
	}()

	probe := &http.Client{Timeout: time.Second}
	defer probe.CloseIdleConnections()
	for time.Since(start) < 60*time.Second {
		select {
		case <-s.exited:
			return nil, 0, fmt.Errorf("aggserve exited during start-up: %v\n%s", s.cmd.ProcessState, s.log.String())
		default:
		}
		resp, err := probe.Get(s.base + "/v1/stats")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(start), nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	s.kill()
	return nil, 0, fmt.Errorf("aggserve not ready after 60s\n%s", s.log.String())
}

// via returns a view of s that sends over c instead of connection 1; only
// the HTTP helpers may be used on it.
func (s *server) via(c *http.Client) *server { return &server{base: s.base, client: c} }

// alive reports whether the child is still running.
func (s *server) alive() bool {
	select {
	case <-s.exited:
		return false
	default:
		return true
	}
}

// kill SIGKILLs the child and waits until it has been reaped.
func (s *server) kill() { s.stop(syscall.SIGKILL) }

// terminate SIGTERMs the child (graceful Close: a durable stream writes its
// final checkpoint) and waits until it has exited.
func (s *server) terminate() { s.stop(syscall.SIGTERM) }

func (s *server) stop(sig syscall.Signal) {
	s.client.CloseIdleConnections()
	if s.alive() {
		_ = s.cmd.Process.Signal(sig) // races a natural exit; Wait below settles it
	}
	select {
	case <-s.exited:
	case <-time.After(30 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
	}
	s.fleet.mu.Lock()
	delete(s.fleet.live, s)
	s.fleet.mu.Unlock()
}

// cpu returns the child's consumed CPU time (utime+stime, all threads).
func (s *server) cpu() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	return parseProcStatCPU(string(b))
}

// parseProcStatCPU extracts utime+stime from one /proc/<pid>/stat line. The
// command name (field 2) is parenthesised and may itself contain spaces and
// parentheses, so fields are counted from the last ')'.
func parseProcStatCPU(stat string) (time.Duration, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, errors.New("proc stat: no command field")
	}
	f := strings.Fields(stat[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, errors.New("proc stat: too few fields")
	}
	utime, err1 := strconv.ParseUint(f[11], 10, 64)
	stime, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("proc stat: utime/stime not numeric")
	}
	return time.Duration(utime+stime) * clockTick, nil
}

// peakRSSMB returns the child's peak resident set (VmHWM) in MB.
func (s *server) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	return parseVmHWM(string(b))
}

// parseVmHWM extracts the "VmHWM:  123456 kB" line of /proc/<pid>/status.
func parseVmHWM(status string) (float64, error) {
	for _, line := range strings.Split(status, "\n") {
		rest, ok := strings.CutPrefix(line, "VmHWM:")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("proc status: odd VmHWM line %q", line)
		}
		kb, err := strconv.ParseFloat(f[0], 64)
		if err != nil {
			return 0, err
		}
		return kb / 1024, nil
	}
	return 0, errors.New("proc status: no VmHWM line")
}

// selfCPU returns this process's consumed CPU time (for driver.cpu_share and
// for the in-process batch_paper workload).
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// --- HTTP helpers ----------------------------------------------------------

// post sends one body, drains the response and returns its status.
func post(c *http.Client, url, contentType string, body []byte) (int, error) {
	resp, err := c.Post(url, contentType, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, err
}

// ingest POSTs one pre-encoded chunk body.
func (s *server) ingest(c *http.Client, body []byte) error {
	code, err := post(c, s.base+"/v1/ingest", memagg.ChunkContentType, body)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("POST /v1/ingest: status %d", code)
	}
	return nil
}

// getJSON GETs path and decodes the 200 body into v.
func (s *server) getJSON(path string, v any) error {
	resp, err := s.client.Get(s.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// stats fetches /v1/stats.
func (s *server) stats() (memagg.StreamStats, error) {
	var st memagg.StreamStats
	err := s.getJSON("/v1/stats", &st)
	return st, err
}

// settle issues the visibility barrier and waits until the merger has
// folded every sealed delta, so CPU measured up to here covers all the work
// the ingested rows caused. It returns the settled stats.
func (s *server) settle() (memagg.StreamStats, error) {
	code, err := post(s.client, s.base+"/v1/flush", "application/json", nil)
	if err != nil {
		return memagg.StreamStats{}, err
	}
	if code != http.StatusOK {
		return memagg.StreamStats{}, fmt.Errorf("POST /v1/flush: status %d", code)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, err := s.stats()
		if err != nil {
			return st, err
		}
		if st.SealedPending == 0 && st.Staleness == 0 {
			return st, nil
		}
		if time.Now().After(deadline) {
			return st, fmt.Errorf("not settled after 30s: %d sealed deltas pending", st.SealedPending)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// queryResponse mirrors aggserve's /v1/query envelope with the result left
// raw, so each caller decodes the row type its query returns.
type queryResponse struct {
	Query     string          `json:"query"`
	Watermark uint64          `json:"watermark"`
	Result    json.RawMessage `json:"result"`
}

// count runs q4.
func (s *server) count() (uint64, error) {
	var r queryResponse
	if err := s.getJSON("/v1/query?q=q4", &r); err != nil {
		return 0, err
	}
	var n uint64
	err := json.Unmarshal(r.Result, &n)
	return n, err
}

// countByKeyChecksum runs q1 and digests the result.
func (s *server) countByKeyChecksum() (checksum, error) {
	var r queryResponse
	if err := s.getJSON("/v1/query?q=q1", &r); err != nil {
		return checksum{}, err
	}
	var rows []memagg.GroupCount
	if err := json.Unmarshal(r.Result, &rows); err != nil {
		return checksum{}, err
	}
	return checksumCounts(rows), nil
}

// --- /v1/metrics -----------------------------------------------------------

// promSample is one scrape of /v1/metrics: series (name plus label set, as
// printed) to value. Histogram bucket series are dropped; _sum and _count
// are what the per-layer means need.
type promSample map[string]float64

func (s *server) scrape() (promSample, error) {
	resp, err := s.client.Get(s.base + "/v1/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/metrics: status %d", resp.StatusCode)
	}
	return parseProm(string(b)), nil
}

// parseProm reads the Prometheus text exposition format as internal/obs
// writes it: "series value" lines, '#' comments.
func parseProm(text string) promSample {
	out := make(promSample)
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 || strings.Contains(line[:i], "_bucket{") {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out
}

// since returns what every series grew by after the earlier scrape before
// (gauges come out as differences too; read those from a scrape directly).
func (after promSample) since(before promSample) promSample {
	d := make(promSample, len(after))
	for series, v := range after {
		d[series] = v - before[series]
	}
	return d
}

// add accumulates another difference into d.
func (d promSample) add(more promSample) {
	for series, v := range more {
		d[series] += v
	}
}

// histMean returns the mean observation, in seconds, of a histogram over an
// accumulated difference; 0 when it recorded nothing. labels is "" or
// `{route="/ingest"}`.
func (d promSample) histMean(name, labels string) float64 {
	n := d[name+"_count"+labels]
	if n <= 0 {
		return 0
	}
	return d[name+"_sum"+labels] / n
}
