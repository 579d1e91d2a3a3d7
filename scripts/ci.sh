#!/bin/sh
# CI gate. Tier 1 first (build + full test suite), then the race-detector
# pass over the aggregation engines: the concurrent designs — including
# Hash_RX's two-phase radix schedule and the internal/radix partitioner it
# drives — must be data-race-free, not just correct.
set -eux

# pinned runs `go test "$@"` after checking that every |-separated
# alternative of its -run pattern names at least one test, fuzz target,
# benchmark or example in its ./ packages. go test passes silently when an
# alternative matches nothing, so without the check a renamed test drops
# out of its pin unnoticed. Alternatives are matched as extended regular
# expressions against `go test -list .` output; none may contain a '|'
# inside parentheses.
pinned() {
	pat='' pkgs='' prev=''
	for a in "$@"; do
		if [ "$prev" = -run ]; then pat=$a; fi
		case $a in ./*) pkgs="$pkgs $a" ;; esac
		prev=$a
	done
	# shellcheck disable=SC2086 # pkgs is a word list
	names=$(go test -list . $pkgs | grep -E '^(Test|Fuzz|Benchmark|Example)' || true)
	old_ifs=$IFS
	IFS='|'
	set -f
	for alt in $pat; do
		if ! printf '%s\n' "$names" | grep -qE -- "$alt"; then
			echo "pinned: -run alternative '$alt' matches nothing in$pkgs" >&2
			exit 1
		fi
	done
	set +f
	IFS=$old_ifs
	go test "$@"
}

go build ./...
go vet ./...
go test ./...

# bench/ is its own module importing memagg and memagg/internal/...; root
# `go test ./...` does not cover it, and a refactor of internals must not
# break its build.
(cd bench && go vet . && go test .)

# Structural guard — one query algebra: the Q6 rank walk, the table merge
# and the query-name switch each exist once (all in internal/agg), so a
# new query family stays a one-place change. cmd/aggquery's switch
# dispatches raw rows to batch Aggregators and bench/ names driver ops —
# different jobs, excluded.
for pat in 'func keyAtRank' 'func [mM]ergeTable' 'case "q1"'; do
	n=$(find . -name '*.go' ! -name '*_test.go' ! -path './cmd/aggquery/*' ! -path './bench/*' ! -path './.*/*' |
		xargs grep -lE "$pat" | wc -l)
	if [ "$n" -gt 1 ]; then
		echo "structural guard: '$pat' is defined in $n non-test files, want at most 1" >&2
		exit 1
	fi
done

# Structural guard — the harness regenerates the paper's batch evaluation
# only: the serving stack (stream, WAL, views, cluster, the memagg facade
# over them) is measured by bench/, so internal/harness imports none of it.
n=$(grep -lE '"memagg(/internal/(stream|cluster|cview|wal)(/[^"]*)?)?"' internal/harness/*.go | wc -l)
if [ "$n" -gt 0 ]; then
	echo "structural guard: $n internal/harness files import the serving stack" >&2
	exit 1
fi

# Structural guard — one HTTP spelling: every aggserve route is mounted
# under /v1 (metric route labels stay unversioned), and the expvar-style
# /debug/vars format is gone in favour of the Prometheus scrape.
n=$(find ./cmd ./internal -name '*.go' ! -name '*_test.go' |
	xargs grep -E 'Handle(Func)?\(' | grep -vE 'Handle(Func)?\("/v1["/]' | wc -l)
if [ "$n" -gt 0 ]; then
	echo "structural guard: $n non-test route mounts outside /v1" >&2
	exit 1
fi
n=$(find ./cmd ./internal -name '*.go' ! -name '*_test.go' | xargs grep -l 'debug/vars' | wc -l)
if [ "$n" -gt 0 ]; then
	echo "structural guard: $n non-test files mention debug/vars" >&2
	exit 1
fi

# Structural guard — one group-run codec: checkpoint runs, view PANES and
# cluster partial sets all serialize tables through internal/agg's
# RunWriter, so no other non-test file encodes a Partial's eager state
# (decoding is closed off by type: only internal/agg can build a Partial
# from bytes).
n=$(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.*/*' |
	xargs grep -lE 'Uint(32|64)\([^)]*\.(Count|Sum)\(\)' | wc -l)
if [ "$n" -gt 0 ]; then
	echo "structural guard: $n non-test files encode Partial state outside the group-run codec" >&2
	exit 1
fi

# Structural guard — one owner of the partition layout: which partition of
# a partition set a row or group lands in is decided inside internal/agg
# (agg.Fold, agg.AbsorbParts, agg.ScatterRows, the group-run decoder) on
# top of internal/radix,
# so no other non-test file calls the partitioner or its index.
n=$(find . -name '*.go' ! -name '*_test.go' ! -path './internal/agg/*' ! -path './internal/radix/*' ! -path './.*/*' |
	xargs grep -lE 'radix\.Partition(Index|Segments)?\(' | wc -l)
if [ "$n" -gt 0 ]; then
	echo "structural guard: $n non-test files outside internal/agg and internal/radix route by radix partition" >&2
	exit 1
fi
# There is one scatter pass (radix.Partition and its segmented form), and
# one caller of it: the run kernel (internal/agg/rows.go, agg.ScatterRows).
# The Hash_RX engine partitions a query's input through it, and so does
# the stream for the rows of its run deltas and of each replayed WAL
# record. Table deltas route rows by the hash their probe computes
# instead, with no scatter pass, so no other file scatters.
n=$(find . -name '*.go' ! -name '*_test.go' ! -path './internal/agg/rows.go' \
	! -path './internal/radix/*' ! -path './.*/*' |
	xargs grep -lE 'radix\.Partition(Segments)?\(' | wc -l)
if [ "$n" -gt 0 ]; then
	echo "structural guard: $n non-test files outside the run kernel scatter with radix.Partition" >&2
	exit 1
fi

# Structural guard — one table engine: the serial hash and tree backends
# are one engine, and it, Hash_RX's partitions, Hash_PLAT's merged
# partitions, Hash_GLB's serial fallback and the concurrent maps of
# Hash_LC and Hash_TBBSC all read their tables out through one emit
# helper per aggregate state, so at most one non-test file in
# internal/agg walks an avg, reduce or value-list table group by group.
# Hash_GLB's lane tables are read by slot index and do not match.
n=$(find ./internal/agg -name '*.go' ! -name '*_test.go' |
	xargs grep -lE 'func\(k uint64, [a-z]+ \*(avgState|reduceState|\[\]uint64|arena\.List)\) bool' | wc -l)
if [ "$n" -gt 1 ]; then
	echo "structural guard: $n non-test files in internal/agg emit an avg, reduce or value-list table, want at most 1" >&2
	exit 1
fi

# Structural guard — one durable-file writer: every file the durability
# layer commits (WAL manifest, checkpoint runs, META and CURRENT, view DEFS
# and PANES) goes through wal.WriteFile / wal.ReplaceFile, so the
# create -> write -> Sync -> Close -> Rename -> SyncDir order lives in one
# place. Outside internal/wal's FS implementations and those helpers
# (fs.go, memfs.go, errfs.go), no non-test file renames or syncs a
# directory.
n=$(find . -name '*.go' ! -name '*_test.go' ! -path './internal/wal/fs.go' ! -path './internal/wal/memfs.go' \
	! -path './internal/wal/errfs.go' ! -path './.*/*' | xargs grep -lE '\.(Rename|SyncDir)\(' | wc -l)
if [ "$n" -gt 0 ]; then
	echo "structural guard: $n non-test files rename or sync a directory outside the wal helpers" >&2
	exit 1
fi

# Structural guard — one frame writer: every durable or wire frame's
# length+CRC32C header is written by internal/wal (SealFrame, which
# AppendFrame and the in-place encoders call), so outside it no non-test
# file computes a checksum.
n=$(find . -name '*.go' ! -name '*_test.go' ! -path './internal/wal/*' ! -path './bench/*' ! -path './.*/*' |
	xargs grep -lE 'crc32|Checksum\(' | wc -l)
if [ "$n" -gt 0 ]; then
	echo "structural guard: $n non-test files outside internal/wal compute a frame checksum" >&2
	exit 1
fi
# ... and one frame-header parser: the magic and version that open a
# checkpoint META, a view PANES file, a wire chunk and a cluster partial
# set are checked by wal.CheckHeader, so outside internal/wal no non-test
# file compares a header magic.
n=$(find . -name '*.go' ! -name '*_test.go' ! -path './internal/wal/*' ! -path './bench/*' ! -path './.*/*' |
	xargs grep -nE '(!=|==) *[A-Za-z_.]*[mM]agic|[mM]agic[A-Za-z_]*\)? *(!=|==)' | wc -l)
if [ "$n" -gt 0 ]; then
	echo "structural guard: $n non-test lines outside internal/wal compare a frame-header magic" >&2
	exit 1
fi

# Structural guard — internal/pairtest imports testing and times code on
# the wall clock: only test files may import it.
n=$(find . -name '*.go' ! -name '*_test.go' ! -path './.*/*' | xargs grep -l '"memagg/internal/pairtest"' | wc -l)
if [ "$n" -gt 0 ]; then
	echo "structural guard: $n non-test files import internal/pairtest" >&2
	exit 1
fi

# Structural guard — one result encoder: query and view results reach the
# wire only through cmd/aggserve's append encoder (resultjson.go), so no
# non-test file there declares a reflected result envelope (a "result" or
# "value" JSON tag) or hands a result to encoding/json.
n=$(find ./cmd/aggserve -name '*.go' ! -name '*_test.go' |
	xargs grep -nE 'json:"(result|value)"|(writeJSON|json\.Marshal(Indent)?|\.Encode)\(.*([Rr]esult|\bres\b|ResultRows|\.Run\(|\.View\()' | wc -l)
if [ "$n" -gt 0 ]; then
	echo "structural guard: $n non-test lines in cmd/aggserve encode a query or view result with encoding/json" >&2
	exit 1
fi

# Structural guard — one row type per result shape: the kernels' row
# types (internal/agg, internal/stragg) are the public ones, aliased by the
# facade, so no other non-test file declares a Group*/StringGroup* row
# struct or a converter copying rows between two such types. The pattern
# is anchored so internal/memsim's sparseGroupSim does not match.
n=$(find . -name '*.go' ! -name '*_test.go' ! -path './internal/agg/*' ! -path './internal/stragg/*' ! -path './.*/*' |
	xargs grep -nE '^type (String)?Group[A-Z][A-Za-z]* struct|^(func|var) (convertRows|ResultRows)[[( =]' | wc -l)
if [ "$n" -gt 0 ]; then
	echo "structural guard: $n non-test row structs or row converters outside internal/agg and internal/stragg" >&2
	exit 1
fi

go test -race ./internal/agg/... ./internal/radix/... ./internal/morsel/... ./internal/hashtbl/...
# The partition-set owner is tested directly: agg.Fold against a
# single-table MergeTable reference (fan-outs 0/1/4/6, values on and off,
# workers 1/2/8: same groups, PartitionIndex placement, untouched
# partitions shared by pointer, inputs unmodified, worker-independent
# order); Fold over partition-set sources at the base's fan-out (folded
# partition q into q) and run sources (raw rows scattered by
# agg.ScatterRows) at the base's fan-out, finer than it and at 8 and 12,
# alone and mixed, against a row-by-row reference (workers 1/2/8,
# copy-on-write and in place), and a set at any other fan-out or a
# coarser run refused with a panic; a copied partition sized for the
# largest source, not their sum; runs folded in place where owned; and
# agg.AbsorbParts, the absorb kernel of the stream's table deltas,
# against a row-by-row reference (fan-outs 0/1/6/MaxPartBits, key 0,
# values on and off, one shared arena or an arena per partition, existing
# tables keeping values in their own arenas, seeded sizes).
pinned -race -run 'TestFold|TestFoldPartitionSets|TestFoldRunsInPlace|TestFoldSizesForLargestSource|TestAbsorbParts|TestPartBits' -count=1 -v ./internal/agg
# The group-run codec's record fuzzer replays its checked-in corpus, and
# the run writer/decoder round trip (multi-frame, heads, radix routing,
# empty runs) is pinned by name; the three containers' own suites
# (checkpoint, cview, cluster) run under -race below.
pinned -race -run 'FuzzPartialWire|TestPartialWire|TestRunWriterRoundTrip' -count=1 -v ./internal/agg
# CountPhases returns each engine's recorded phase split, aggbench -json's
# too, and a query moves only its own engine's phase series; Hash_PLAT
# answers every group when it has fewer rows than workers.
pinned -race -run 'TestCountPhases$|TestPLATFewerRowsThanWorkers$' -count=1 -v ./internal/agg
pinned -run 'TestRunJSON$' -count=1 -v ./internal/harness

# The global shared-table engine's whole correctness story is concurrent:
# CAS-claimed slots, atomic lane folds, growth at batch boundaries. The
# dedicated contended-upsert test and the parallel-vs-serial equivalence
# gate are pinned by name so a rename can't silently drop them from the
# race pass above.
pinned -race -run 'TestConcurrentParallelUpsertRace' -count=1 -v ./internal/hashtbl
pinned -race -run 'TestGLBParallelReduceMatchesSerial|TestGLBParallelShortValsAndZeroKey' -count=1 -v ./internal/agg

# The streaming subsystem's whole design is concurrent (sharded writers,
# background merger, lock-free snapshot pinning), so its entire suite —
# including the stream-vs-batch equivalence gate — runs under the race
# detector.
go test -race ./internal/stream/...
# A sealed holistic delta keeps the value lists of all its partitions in
# one arena, no larger than the one-table delta of the same rows.
pinned -race -run 'TestHolisticDeltaOneArena' -count=1 -v ./internal/stream

# Allocs-regression smoke check: the arena-backed holistic Q3 must stay
# within its recorded allocs/op budget (and keep its >=10x margin over the
# go-runtime allocator) — for the serial engines and for Hash_GLB's
# buffer-and-replay holistic path. Catches per-row/per-group allocations
# creeping back into the monomorphized build kernels.
pinned -run 'TestQ3AllocBudget|TestGLBAllocBudget' -count=1 ./internal/agg

# Durability subsystem: the WAL and checkpoint packages are exercised by
# concurrent writers (group commit under the view lock, background
# checkpointer, fault-injection trips from any goroutine), so their whole
# suite runs under the race detector, and the kill-and-replay equivalence
# gate — hard-kill via fault injection at arbitrary points, reopen,
# Q1-Q7 must match a never-crashed reference at the recovered watermark —
# is pinned by name so a test rename can't silently drop it. Beside it:
# recovery folds the WAL suffix straight into the base (no sealed backlog,
# no merge owed after Open, answers and views identical to a never-crashed
# stream), checkpoint loads allocate within a small multiple of their
# on-disk size (one shared read buffer, not one per partition file), and
# the WAL append and view-settle histograms actually record. A checkpoint
# and PANES snapshot written before those files shared the group-run codec
# (checked in under testdata/parentfmt) must keep recovering to the same
# answers.
go test -race ./internal/wal/...
pinned -race -run 'TestCrashRecoveryEquivalence|TestCorruptTailRecoversPrefix|FuzzWALRecovery|TestRecoveryFoldsIntoBase|TestCViewUpdateLatencyRecorded|TestParentFormatLoads' -count=1 -v ./internal/stream
pinned -race -run 'TestCheckpointLoadAllocBound' -count=1 -v ./internal/wal/checkpoint
pinned -race -run 'TestAppendLatencyTimed' -count=1 -v ./internal/wal

# Snapshot query path: the parallel-vs-serial equivalence gate (Q1-Q7 plus
# quantile/mode byte-equal across worker counts and fold cutoffs against a
# serial reference) and the snapshot contracts (an old snapshot keeps its
# rows after new seals, parameters answer distinct queries, every result
# is caller-owned) are pinned by name under the race detector — the fold
# single-flight and agg.Run's offset-writing kernels run concurrently in
# production. The merger folds into a base in place when no reader has
# pinned it, so the isolation gates for that path ride on the same line:
# an old snapshot answers its original rows after further merges, a
# partition an older pinned generation still shares is copied rather than
# folded in place, readers racing the merger always see a consistent
# prefix, a checkpoint racing merges reopens equal, and the in-place and
# copied partition counters move as a snapshot comes and goes. The query
# vocabulary's own table (every spelling round-trips, QueryID values
# pinned as the on-disk format they are, NaN/out-of-range quantiles
# rejected) rides along.
pinned -race -run 'TestQueryParallelSerialEquivalence|TestQueryConcurrentSnapshots|TestQueryCacheWatermarkIsolation|TestQueryCacheParamsKeyed|TestSnapshotResultsCallerOwned|TestInPlaceSnapshotIsolation|TestInPlaceOwnershipAcrossGenerations|TestInPlaceReadersRaceMerger|TestInPlaceCheckpointRacesMerges|TestMergePartsCounters|TestRedundantCheckpointLeavesBaseFree' -count=1 -v ./internal/stream
# View reads fold their window partition-wise and scan it in parallel, so
# they carry the same contract: q1/q2/q6/quantile views read identically
# (unsorted) at worker counts 1/2/8 and both cutoffs. Beside it, a
# checkpoint whose META fan-out the partitioner cannot route is refused by
# Load and Open instead of recovering misrouted partitions.
pinned -race -run 'TestViewParallelSerialEquivalence|TestCheckpointBadBitsRejected' -count=1 -v ./internal/stream
pinned -race -run 'TestParseQuery|TestQueryValidate|TestQueryIDsPinned' -count=1 -v ./internal/agg

# Clustered serving: the router, breaker, wire codec, and scatter-gather
# merge are exercised by concurrent producers against live HTTP nodes, so
# the whole package runs under the race detector — and the cluster
# equivalence gate (3 nodes fed concurrently through the router must
# answer Q1-Q7 plus quantile/mode identical to one local stream) and the
# kill-one-worker gate (breaker trips, typed partial-availability errors,
# no hangs) are pinned by name so a rename can't silently drop them.
go test -race ./internal/cluster/...
pinned -race -run 'TestClusterEquivalence|TestClusterKillTripsBreaker' -count=1 -v ./internal/cluster
# Consistent-hash movement bound: adding a node to N must move <= K/N keys.
pinned -race -run 'TestRingMovementOnAdd' -count=1 -v ./internal/chash

# Columnar chunk ingest (binary wire + zero-copy path). The fuzz harness
# replays its checked-in seed corpus (decode -> re-encode -> identical, or
# a typed error) as part of the package suite; it is pinned by name here so
# a rename can't drop the corpus replay. The content-negotiation gates then
# prove JSON-fed and binary-fed servers answer bit-identical Q1-Q7 (plus
# quantile/mode) — single node and the 3-node scatter path — under the
# race detector, with concurrent producers appending across shards. The
# stream reads appended columns in place, so the facade's AppendChunk
# copy (the caller may reuse its slices) has a gate of its own, on a
# volatile stream and across a durable reopen; the WAL record written
# from a delta's batch columns must be byte-identical to the one-array
# encoding.
pinned -race -run 'FuzzChunkWire|TestChunkWire|TestChunkStream' -count=1 -v ./internal/agg
pinned -race -run 'TestAppendChunkShortValsZeroExtend|TestAppendChunkConcurrentAccounting' -count=1 -v ./internal/stream
pinned -race -run 'TestAppendChunkCallerMayReuse' -count=1 -v .
pinned -race -run 'TestRecordSegmentsEncodeIdentically|TestAppendSegmentsMatchesAppend' -count=1 -v ./internal/wal
pinned -race -run 'TestIngestEquivalenceJSONBinary|TestClusterIngestEquivalence|TestIngestBinaryMultiChunkBody|TestIngestBinaryRejectsCorruptBody|TestRoutesV1Only' -count=1 -v ./cmd/aggserve
# JSON bodies are capped: one byte over the cap answers 413 on node and
# router ingest and on view registration, nothing is applied, and the
# server keeps serving. /v1/stats keys and their order are wire format.
pinned -race -run 'TestJSONBodyTooLarge|TestStatsKeysPinned' -count=1 -v ./cmd/aggserve
# An already-cancelled query answers 499 before any query work (it used to
# race the query's own completion and could answer 200).
pinned -race -run 'TestQueryCanceledContext$' -count=50 ./cmd/aggserve
# Query-parameter gate: p=NaN answers 400 (it used to crash the process)
# and the router validates before it gathers.
pinned -race -run 'TestQuantileNaNRejected|TestRouterValidatesBeforeGather' -count=1 -v ./cmd/aggserve

# Continuous views (internal/cview). The whole package runs under the race
# detector, then the stream-level gates are pinned by name so a rename
# can't silently drop them: window-vs-batch equivalence (every query
# family x window shape must reflect.DeepEqual the batch recompute over
# exactly the window's rows, holistic quantile/mode included), a seal
# landing exactly on a pane boundary, sliding reads racing evictions,
# mid-ingest registration without double-counting, and restart recovery
# in both death modes (hard kill -> WAL-suffix replay, graceful close ->
# PANES snapshot), plus the HTTP CRUD/ETag surface.
go test -race ./internal/cview/...
pinned -race -run 'TestCViewBatchEquivalence|TestCViewPaneBoundary|TestCViewEvictionRace|TestCViewRegisterMidIngest|TestCViewRestartReplay|TestCViewDefinitionsPersist' -count=1 -v ./internal/stream
pinned -race -run 'TestViewCRUD|TestViewResultETag|TestViewHolisticGate|TestViewReregisterETag' -count=1 -v ./cmd/aggserve
# Result bodies: the append encoder is byte-identical to encoding/json over
# the reflected envelopes it replaced (a table of every result shape, every
# query of the vocabulary through a stream and its views, and the fuzz
# target's seeds). A node's body cache, one entry per URI hit only at its
# stored ETag, never serves a body past its tag, holds its entry and byte
# bounds, pairs one tag with one body under concurrent GETs, and keeps the
# body of a query whose client left mid-flight. The router keeps none, and
# a peer that restarts back to the same watermark vector moves the
# router's ETag with its new incarnation, so neither an old body nor a 304
# for the pre-restart tag is served.
pinned -race -run 'TestResultJSON|FuzzResultJSON|TestBodyCache|TestQueryCanceledMidQueryKeepsBody|TestRouterPeerRestartSameVector' -count=1 -v ./cmd/aggserve

# Overhead guards, last so nothing else competes for the CPU. Each times
# one code path against its baseline in ABBA-ordered pairs through
# internal/pairtest and fails only when the paired ratios' median is over
# budget with 95% confidence (see that package):
#   - obs: instrumented ingest vs timing disabled, 1.05 (DESIGN.md
#     budget <2%), on a line of its own at -cpu 1: at GOMAXPROCS=2 the
#     timing calls run on the producer while the shard absorbs on the
#     other CPU, so a 30 us spin per Mark.Tick hid off the critical path;
#     on one CPU every instrument's cost lands in the measured time;
#   - WAL: SyncPolicy=none durable ingest (record encode from the sealed
#     delta's batch columns, CRC32C, buffered write) vs volatile, 1.15;
#   - query: the partition-parallel path at 2 workers vs the plain serial
#     path, 1.20, on the -cpu 1 line too: at one CPU the second worker's
#     dispatch and goroutine run but cannot win time back, so the guard
#     prices the parallel machinery rather than comparing the serial scan
#     with itself;
#   - cview: ingest with 4 registered views vs none, 1.10;
#   - ingest wire: binary chunk ingest time vs JSON for the same rows
#     through the same server, 1.0 (pins the sign; bench/'s ingest_paced
#     measures chunk ingest).
# The tests skip without MEMAGG_GUARDS=1, so plain `go test ./...` stays
# deterministic; -p 1 keeps the two packages' guards from timing each
# other. Both guard lines always run and report, so a failing guard on
# the first line does not hide the obs and query guards' readings; the
# gate fails after them if either line failed.
export MEMAGG_GUARDS=1
guards=0
pinned -p 1 -count=1 -v -run 'Guard$' -skip 'TestObsOverheadGuard|TestQueryOverheadGuard' ./internal/stream ./cmd/aggserve || guards=1
pinned -count=1 -v -cpu 1 -run 'TestObsOverheadGuard$|TestQueryOverheadGuard$' ./internal/stream || guards=1
test "$guards" -eq 0
