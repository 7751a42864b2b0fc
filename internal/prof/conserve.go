package prof

import (
	"fmt"
	"sort"

	"github.com/asterisc-release/erebor-go/internal/metrics"
)

// CheckConservation compares the profiler's per-(tenant, phase) stack totals
// against the attribution cursor's flushed totals in the registry and
// returns one line per discrepancy, sorted (empty means every bucket
// conserves exactly and no cycles were dropped outside the window). Both
// sides observe the same Clock.Charge calls over the same window, so any
// mismatch is a profiler bug — callers should hard-fail on it, not warn.
func (p *Profiler) CheckConservation(met *metrics.Registry) []string {
	var bad []string
	want, _ := met.Attribution()
	got := p.Totals()
	keys := make(map[Key]bool, len(want)+len(got))
	for k := range want {
		keys[k] = true
	}
	for k := range got {
		keys[k] = true
	}
	for k := range keys {
		if got[k] != want[k] {
			bad = append(bad, fmt.Sprintf("tenant %d phase %q: profiler %d cycles, metrics %d",
				k.Tenant, k.Phase, got[k], want[k]))
		}
	}
	if d := p.Dropped(); d > 0 {
		bad = append(bad, fmt.Sprintf("%d cycles observed outside any phase (dropped)", d))
	}
	if n := p.Depth(); n != 0 {
		bad = append(bad, fmt.Sprintf("frame stack unbalanced: depth %d at check time", n))
	}
	sort.Strings(bad)
	return bad
}
