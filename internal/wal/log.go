package wal

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"time"

	"memagg/internal/obs"
)

// SyncPolicy controls when appended records are fsync'd.
type SyncPolicy int

const (
	// SyncNone never fsyncs on append: the OS page cache decides. Fastest;
	// a crash can lose every record since the last rotation.
	SyncNone SyncPolicy = iota
	// SyncInterval fsyncs when at least syncPeriod has passed since the
	// last sync, amortizing the fsync over many appends. A crash loses at
	// most the records of the last interval.
	SyncInterval
	// SyncAlways fsyncs every append: a record acknowledged is a record
	// durable. The policy the crash-recovery gate assumes.
	SyncAlways
)

func (p SyncPolicy) String() string {
	switch p {
	case SyncNone:
		return "none"
	case SyncInterval:
		return "interval"
	case SyncAlways:
		return "always"
	}
	return "?"
}

// ParseSyncPolicy maps the flag spelling ("none", "interval", "always")
// to its SyncPolicy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "none":
		return SyncNone, nil
	case "interval", "":
		return SyncInterval, nil
	case "always":
		return SyncAlways, nil
	}
	return 0, fmt.Errorf("wal: unknown sync policy %q (none|interval|always)", s)
}

// Metrics is the log's optional instrument set; a nil set or field
// records nothing. The stream wires these into its per-stream obs
// registry so /metrics exposes the WAL next to the ingest pipeline.
type Metrics struct {
	Appends      *obs.Counter   // records appended
	AppendBytes  *obs.Counter   // framed bytes appended
	Syncs        *obs.Counter   // fsync calls
	Rotations    *obs.Counter   // segment rotations
	SegsDropped  *obs.Counter   // segments removed by truncation
	ReplayedRows *obs.Counter   // rows handed to replay at Open
	SyncLat      *obs.Histogram // fsync latency
	AppendLat    *obs.Histogram // Append latency: encode, write, any rotation and fsync
}

// Options configures a Log. The zero value is usable: OS filesystem, no
// fsync, 16 MiB segments.
type Options struct {
	// FS is the filesystem to write through; nil means OSFS.
	FS FS
	// SyncPolicy is the fsync discipline; see the constants.
	SyncPolicy SyncPolicy
	// SegmentBytes rotates the active segment when it would exceed this
	// size. <= 0 means 16 MiB.
	SegmentBytes int
	// SkipBelow lets recovery skip whole sealed segments whose final
	// watermark is at or below this value (rows already covered by a
	// checkpoint): they are not even opened.
	SkipBelow uint64
	// Metrics receives the log's instruments; nil disables them.
	Metrics *Metrics
}

func (o Options) withDefaults() Options {
	if o.FS == nil {
		o.FS = OSFS{}
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 16 << 20
	}
	if o.Metrics == nil {
		o.Metrics = &Metrics{}
	}
	return o
}

// syncPeriod is the SyncInterval policy's amortization period.
const syncPeriod = 100 * time.Millisecond

const manifestName = "MANIFEST"

// segment is one manifest entry. endWM is the watermark after the
// segment's last record — exact for sealed segments (recorded at
// rotation), advisory for the active (last) one.
type segment struct {
	name  string
	endWM uint64
}

// Log is a segmented append-only record log. Append/Sync/TruncateBelow/
// Close are safe for concurrent use (the stream appends from seal
// publication while the checkpointer truncates).
type Log struct {
	fs   FS
	dir  string
	opts Options

	mu         sync.Mutex
	segs       []segment // oldest first; last is active
	seq        uint64    // sequence number of the active segment
	active     File
	activeSize int64
	lastWM     uint64
	lastSync   time.Time
	buf        []byte
	broken     error // sticky: a failed write leaves the tail torn
	closed     bool
}

func segName(seq uint64) string { return fmt.Sprintf("seg-%08d.wal", seq) }

func segSeq(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "seg-") || !strings.HasSuffix(name, ".wal") {
		return 0, false
	}
	n, err := strconv.ParseUint(name[4:len(name)-4], 10, 64)
	return n, err == nil
}

// Open opens (or creates) the log in dir, replaying every valid record —
// in order — through replay, and returns the log positioned to append
// after the last valid record. Recovery truncates the log at the first
// torn or corrupt frame: the bytes after it are unreachable garbage from
// a crashed write, so the longest valid prefix is the log. replay may
// return an error wrapping ErrWALCorrupt to reject a record (watermark
// discontinuity against recovered state); the log is truncated there too.
// Any other replay error aborts Open.
func Open(dir string, opts Options, replay func(Record) error) (*Log, error) {
	opts = opts.withDefaults()
	l := &Log{fs: opts.FS, dir: dir, opts: opts}
	if err := l.fs.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("wal: mkdir: %w", err)
	}
	segs, err := l.readManifest()
	if err != nil {
		return nil, err
	}
	if segs == nil {
		// Fresh log: one empty segment, manifest established before the
		// first append so a crash right here recovers an empty log.
		l.seq = 1
		l.segs = []segment{{name: segName(1)}}
		f, err := l.fs.Create(join(dir, segName(1)))
		if err != nil {
			return nil, fmt.Errorf("wal: create segment: %w", err)
		}
		l.active = f
		if err := l.writeManifest(); err != nil {
			return nil, err
		}
		return l, nil
	}
	if err := l.recover(segs, replay); err != nil {
		return nil, err
	}
	l.removeOrphans()
	return l, nil
}

// recover scans the manifest's segments in order, replays valid records,
// repairs the tail, and leaves the last segment open for appends.
func (l *Log) recover(segs []segment, replay func(Record) error) error {
	valid := make([]segment, 0, len(segs))
	truncated := false
	for i, sg := range segs {
		if truncated {
			// Everything after the first corruption is dead: remove.
			_ = l.fs.Remove(join(l.dir, sg.name))
			continue
		}
		// A sealed segment fully below the checkpoint needs no scan: its
		// rows are durable in the checkpoint and the next truncation will
		// drop it.
		if i < len(segs)-1 && sg.endWM > 0 && sg.endWM <= l.opts.SkipBelow {
			if sg.endWM > l.lastWM {
				l.lastWM = sg.endWM
			}
			valid = append(valid, sg)
			continue
		}
		end, endWM, err := l.scanSegment(sg.name, replay)
		if err != nil {
			if !errors.Is(err, ErrWALCorrupt) {
				return err
			}
			// Corrupt or torn tail: cut this segment at the last valid
			// frame and drop everything after it.
			if terr := l.truncateSegment(sg.name, end); terr != nil {
				return terr
			}
			truncated = true
		}
		if endWM > l.lastWM {
			l.lastWM = endWM
		}
		sg.endWM = endWM
		valid = append(valid, sg)
	}
	if len(valid) == 0 {
		valid = []segment{{name: segName(1)}}
		if _, err := l.fs.Create(join(l.dir, segName(1))); err != nil {
			return fmt.Errorf("wal: create segment: %w", err)
		}
	}
	l.segs = valid
	last := valid[len(valid)-1]
	if seq, ok := segSeq(last.name); ok {
		l.seq = seq
	}
	f, err := l.fs.OpenAppend(join(l.dir, last.name))
	if err != nil {
		return fmt.Errorf("wal: open active segment: %w", err)
	}
	l.active = f
	if size, err := l.fs.Size(join(l.dir, last.name)); err == nil {
		l.activeSize = size
	}
	return l.writeManifest()
}

// scanSegment replays name's valid records. It returns the byte offset
// one past the last valid frame, the watermark of the last valid record,
// and an ErrWALCorrupt-wrapping error when the scan ended early (torn or
// corrupt frame, watermark discontinuity, or replay rejection). A missing
// segment file reports offset 0 and corruption.
func (l *Log) scanSegment(name string, replay func(Record) error) (int64, uint64, error) {
	f, err := l.fs.Open(join(l.dir, name))
	if err != nil {
		return 0, 0, fmt.Errorf("wal: segment %s missing: %w", name, ErrWALCorrupt)
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 1<<20)
	var off int64
	var lastWM uint64
	first := true
	for {
		payload, n, err := ReadFrame(r)
		if err == io.EOF {
			return off, lastWM, nil
		}
		if err != nil {
			return off, lastWM, err
		}
		rec, err := decodeRecord(payload)
		if err != nil {
			return off, lastWM, err
		}
		// Watermark continuity: each record advances the watermark by
		// exactly its row count. The first record of the scan has no
		// predecessor to check against (earlier records may live in
		// skipped segments or the checkpoint).
		if prev := l.lastWM; !first || prev > 0 {
			base := lastWM
			if first {
				base = prev
			}
			if rec.EndWatermark != base+uint64(rec.Rows()) {
				return off, lastWM, fmt.Errorf("wal: watermark gap at %s+%d: %w", name, off, ErrWALCorrupt)
			}
		}
		if replay != nil {
			l.opts.Metrics.ReplayedRows.Add(uint64(rec.Rows()))
			if err := replay(rec); err != nil {
				if errors.Is(err, ErrWALCorrupt) {
					return off, lastWM, err
				}
				return off, lastWM, fmt.Errorf("wal: replay: %w", err)
			}
		}
		first = false
		lastWM = rec.EndWatermark
		off += int64(n)
	}
}

// truncateSegment cuts name to size bytes.
func (l *Log) truncateSegment(name string, size int64) error {
	f, err := l.fs.OpenAppend(join(l.dir, name))
	if err != nil {
		return fmt.Errorf("wal: truncate %s: %w", name, err)
	}
	defer f.Close()
	if err := f.Truncate(size); err != nil {
		return fmt.Errorf("wal: truncate %s: %w", name, err)
	}
	return f.Sync()
}

// removeOrphans deletes segment files a crashed rotation or truncation
// left outside the manifest. Best effort.
func (l *Log) removeOrphans() {
	names, err := l.fs.ReadDir(l.dir)
	if err != nil {
		return
	}
	live := map[string]bool{manifestName: true}
	for _, sg := range l.segs {
		live[sg.name] = true
	}
	for _, n := range names {
		if _, ok := segSeq(n); ok && !live[n] {
			_ = l.fs.Remove(join(l.dir, n))
		}
	}
}

// readManifest parses the manifest, returning nil (no error) when the log
// directory is fresh.
func (l *Log) readManifest() ([]segment, error) {
	f, err := l.fs.Open(join(l.dir, manifestName))
	if err != nil {
		if errors.Is(err, errNotExist) {
			return nil, nil
		}
		return nil, fmt.Errorf("wal: open manifest: %w", err)
	}
	defer f.Close()
	data, err := io.ReadAll(f)
	if err != nil {
		return nil, fmt.Errorf("wal: read manifest: %w", err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) == 0 || lines[0] != "memagg-wal v1" {
		return nil, fmt.Errorf("wal: bad manifest header: %w", ErrWALCorrupt)
	}
	var segs []segment
	for _, line := range lines[1:] {
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			return nil, fmt.Errorf("wal: bad manifest line %q: %w", line, ErrWALCorrupt)
		}
		wm, err := strconv.ParseUint(fields[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("wal: bad manifest line %q: %w", line, ErrWALCorrupt)
		}
		segs = append(segs, segment{name: fields[0], endWM: wm})
	}
	if len(segs) == 0 {
		return nil, fmt.Errorf("wal: empty manifest: %w", ErrWALCorrupt)
	}
	return segs, nil
}

// writeManifest swaps in a manifest listing l.segs — the atomic commit
// point of rotations and truncations. The directory fsync also makes any
// segment files created alongside it survive power loss.
func (l *Log) writeManifest() error {
	var b strings.Builder
	b.WriteString("memagg-wal v1\n")
	for _, sg := range l.segs {
		fmt.Fprintf(&b, "%s %d\n", sg.name, sg.endWM)
	}
	if err := ReplaceFile(l.fs, l.dir, manifestName, []byte(b.String())); err != nil {
		return fmt.Errorf("wal: manifest: %w", err)
	}
	return nil
}

// Append frames and writes one record, rotating the segment and syncing
// as the options dictate. An error is sticky: the on-disk tail may be
// torn, so every subsequent Append fails too and the caller must degrade
// (recovery will repair the tail).
func (l *Log) Append(r Record) error {
	defer obs.Start().Tick(l.opts.Metrics.AppendLat)
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errors.New("wal: closed")
	}
	if l.broken != nil {
		return l.broken
	}
	l.buf = encodeRecord(l.buf[:0], r)
	if l.activeSize > 0 && l.activeSize+int64(len(l.buf)) > int64(l.opts.SegmentBytes) {
		if err := l.rotate(); err != nil {
			l.broken = err
			return err
		}
	}
	if _, err := l.active.Write(l.buf); err != nil {
		l.broken = fmt.Errorf("wal: append: %w", err)
		return l.broken
	}
	l.activeSize += int64(len(l.buf))
	l.lastWM = r.EndWatermark
	l.opts.Metrics.Appends.Inc()
	l.opts.Metrics.AppendBytes.Add(uint64(len(l.buf)))
	switch l.opts.SyncPolicy {
	case SyncAlways:
		return l.syncLocked()
	case SyncInterval:
		if time.Since(l.lastSync) >= syncPeriod {
			return l.syncLocked()
		}
	}
	return nil
}

func (l *Log) syncLocked() error {
	start := time.Now()
	if err := l.active.Sync(); err != nil {
		l.broken = fmt.Errorf("wal: sync: %w", err)
		return l.broken
	}
	l.lastSync = time.Now()
	l.opts.Metrics.Syncs.Inc()
	l.opts.Metrics.SyncLat.Observe(time.Since(start))
	return nil
}

// Sync forces an fsync of the active segment regardless of policy.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed || l.broken != nil {
		return l.broken
	}
	return l.syncLocked()
}

// rotate seals the active segment (sync, record its end watermark) and
// starts a fresh one, committing the new list with a manifest swap before
// any record lands in the new file.
func (l *Log) rotate() error {
	if err := l.syncLocked(); err != nil {
		return err
	}
	if err := l.active.Close(); err != nil {
		return fmt.Errorf("wal: rotate: %w", err)
	}
	l.segs[len(l.segs)-1].endWM = l.lastWM
	l.seq++
	name := segName(l.seq)
	f, err := l.fs.Create(join(l.dir, name))
	if err != nil {
		return fmt.Errorf("wal: rotate: %w", err)
	}
	l.segs = append(l.segs, segment{name: name})
	l.active = f
	l.activeSize = 0
	if err := l.writeManifest(); err != nil {
		return err
	}
	l.opts.Metrics.Rotations.Inc()
	return nil
}

// TruncateBelow drops every sealed segment whose records all fall at or
// below wm — the cleanup after a checkpoint made those rows durable
// elsewhere. The manifest swap commits the drop before any file is
// removed, so a crash mid-truncation leaves only ignorable orphans.
func (l *Log) TruncateBelow(wm uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	keep := l.segs[:0:0]
	var drop []string
	for i, sg := range l.segs {
		if i < len(l.segs)-1 && sg.endWM > 0 && sg.endWM <= wm {
			drop = append(drop, sg.name)
			continue
		}
		keep = append(keep, sg)
	}
	if len(drop) == 0 {
		return nil
	}
	l.segs = keep
	if err := l.writeManifest(); err != nil {
		return err
	}
	for _, name := range drop {
		_ = l.fs.Remove(join(l.dir, name))
	}
	l.opts.Metrics.SegsDropped.Add(uint64(len(drop)))
	return nil
}

// ResetBaseline discards every segment and starts a fresh one whose
// appends begin at watermark wm. Recovery calls it when a durable
// checkpoint is ahead of the recovered log (under SyncPolicy none or
// interval, a crash can lose the log's unsynced tail while the fsync'd
// checkpoint survives): every surviving record is already folded into the
// checkpoint, and appending past the watermark gap would read as
// corruption to the next recovery's continuity check — which would
// truncate rows acknowledged after this recovery. A wm at or below the
// log's last watermark is a no-op.
func (l *Log) ResetBaseline(wm uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errors.New("wal: closed")
	}
	if l.broken != nil {
		return l.broken
	}
	if wm <= l.lastWM {
		return nil
	}
	if err := l.active.Close(); err != nil {
		return fmt.Errorf("wal: reset: %w", err)
	}
	old := make([]string, len(l.segs))
	for i, sg := range l.segs {
		old[i] = sg.name
	}
	l.seq++
	name := segName(l.seq)
	f, err := l.fs.Create(join(l.dir, name))
	if err != nil {
		return fmt.Errorf("wal: reset: %w", err)
	}
	l.segs = []segment{{name: name}}
	l.active = f
	l.activeSize = 0
	l.lastWM = wm
	// Same crash discipline as rotation and truncation: the manifest swap
	// commits the new list, then the superseded files become removable
	// orphans (records at or below wm are durable in the checkpoint either
	// way).
	if err := l.writeManifest(); err != nil {
		return err
	}
	for _, n := range old {
		_ = l.fs.Remove(join(l.dir, n))
	}
	l.opts.Metrics.SegsDropped.Add(uint64(len(old)))
	return nil
}

// LastWatermark returns the end watermark of the last record appended or
// recovered.
func (l *Log) LastWatermark() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lastWM
}

// SizeBytes returns the log's total on-disk size.
func (l *Log) SizeBytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var total int64
	for _, sg := range l.segs {
		if n, err := l.fs.Size(join(l.dir, sg.name)); err == nil {
			total += n
		}
	}
	return total
}

// Segments returns the number of live segments.
func (l *Log) Segments() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.segs)
}

// Close syncs (best effort under SyncNone is still a sync — closing is
// rare) and closes the active segment. The log is unusable afterwards.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	var err error
	if l.broken == nil {
		err = l.active.Sync()
	}
	if cerr := l.active.Close(); err == nil {
		err = cerr
	}
	return err
}
