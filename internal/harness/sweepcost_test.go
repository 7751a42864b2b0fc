package harness

import (
	"fmt"
	"testing"

	"github.com/asterisc-release/erebor-go/internal/audit"
	"github.com/asterisc-release/erebor-go/internal/kernel"
)

// sweepSizesMB are the CVM sizes the sweep-cost checks compare: the serving
// benchmark's 256 MiB and four times that.
var sweepSizesMB = []uint64{256, 1024}

func sweepWorld(tb testing.TB, memMB uint64) *World {
	tb.Helper()
	w, err := NewWorld(WorldConfig{Mode: kernel.ModeErebor, MemMB: memMB})
	if err != nil {
		tb.Fatal(err)
	}
	return w
}

// TestWatchdogSweepIndependentOfCVMSize pins the watchdog's cost model: a
// sweep visits the state the monitor tracks, never every physical frame, so
// two clean worlds that differ only in CVM size audit to the same (empty)
// result with the same allocations per sweep.
func TestWatchdogSweepIndependentOfCVMSize(t *testing.T) {
	var allocs []float64
	for _, mb := range sweepSizesMB {
		w := sweepWorld(t, mb)
		if v := w.Mon.Audit(); len(v) != 0 {
			t.Fatalf("%d MiB: clean world audits dirty: %v", mb, v)
		}
		allocs = append(allocs, testing.AllocsPerRun(20, func() { w.Mon.Audit() }))
	}
	if allocs[0] != allocs[1] {
		t.Fatalf("sweep allocations depend on CVM size: %d MiB -> %.0f, %d MiB -> %.0f",
			sweepSizesMB[0], allocs[0], sweepSizesMB[1], allocs[1])
	}
}

var sweepSink []audit.Violation

// BenchmarkWatchdogSweep reports one Monitor.Audit sweep of a clean world at
// each CVM size. Allocations read the same; time still follows the direct
// map's page-table pages (one per 512 frames), which I1 checks.
func BenchmarkWatchdogSweep(b *testing.B) {
	for _, mb := range sweepSizesMB {
		b.Run(fmt.Sprintf("%dMiB", mb), func(b *testing.B) {
			w := sweepWorld(b, mb)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sweepSink = w.Mon.Audit()
			}
		})
	}
}
