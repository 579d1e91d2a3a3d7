//go:build linux && !race

// Minor faults are counted per process: the race detector's shadow memory
// faults alongside the table, so the test builds without it.

package hashtbl

import (
	"runtime"
	"syscall"
	"testing"
)

// TestFreshTableFaultsOncePerPage: filling a table sized up front costs
// about one minor page fault per page of its slot arrays. The probe reads
// a slot before it writes it, and reading a page the kernel has not mapped
// yet maps the shared zero page, so unless alloc writes each page first
// the probe's write faults every page a second time.
func TestFreshTableFaultsOncePerPage(t *testing.T) {
	const n = 1 << 20
	runtime.GC()
	before := minorFaults(t)
	tb := NewLinearProbe[uint64](n)
	for k := uint64(1); k <= n; k++ {
		*tb.Upsert(k) += k
	}
	faults := minorFaults(t) - before
	pages := int64(tb.Cap()) * 16 / pageBytes // keys plus uint64 values
	if faults > pages*5/4 {
		t.Fatalf("filling a fresh %d-slot table took %d minor faults for %d pages, want about one per page", tb.Cap(), faults, pages)
	}
	t.Logf("%d minor faults for %d pages", faults, pages)
}

func minorFaults(t *testing.T) int64 {
	t.Helper()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatal(err)
	}
	return ru.Minflt
}
