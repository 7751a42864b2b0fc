package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
)

// benchmarkJSON is the part of ../BENCHMARK.json the self-test checks.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// virtualMetrics are the end-to-end metrics measured on the modeled
// system's virtual clock: a pure function of (workload, seed).
var virtualMetrics = []string{
	"session_p50_vcycles", "session_p99_vcycles", "first_compute_p50_vcycles",
	"sessions_per_vs", "overhead_pct",
}

func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var drivers []string
	for n := range workloadsByName {
		drivers = append(drivers, n)
	}
	sort.Strings(names)
	sort.Strings(drivers)
	if len(names) != len(drivers) {
		t.Fatalf("BENCHMARK.json workloads %v, drivers %v", names, drivers)
	}
	for i := range names {
		if names[i] != drivers[i] {
			t.Fatalf("BENCHMARK.json workloads %v, drivers %v", names, drivers)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, catalogue %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end_to_end[%d] = %s %s, catalogue %s %s", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, catalogue %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per_layer[%d] = %s %s, catalogue %s %s", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}

// checkPrinted asserts every catalogued metric is in the result with its
// unit, and (end-to-end only) is never zero.
func checkPrinted(t *testing.T, wl string, res *result, defs []metricDef, nonZero bool) {
	t.Helper()
	if len(res.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics printed, want %d", wl, len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", wl, d.name)
		case m.Unit != d.unit:
			t.Errorf("%s: metric %s unit %q, want %q", wl, d.name, m.Unit, d.unit)
		case nonZero && m.Value <= 0:
			t.Errorf("%s: metric %s = %v, want > 0", wl, d.name, m.Value)
		}
	}
}

func TestTinyRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, wl := range []string{"churn", "fork-bulk", "apps"} {
		o := options{seed: 7, tiny: true, quiet: true}
		first, err := run(wl, o)
		if err != nil {
			t.Fatalf("%s: %v", wl, err)
		}
		if !first.Correct || first.Failed != 0 || first.Attempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", wl, first.Correct, first.Attempted, first.Failed)
		}
		checkPrinted(t, wl, first, endToEnd, true)
		second, err := run(wl, o)
		if err != nil {
			t.Fatalf("%s: %v", wl, err)
		}
		for _, name := range virtualMetrics {
			if a, b := first.Metrics[name].Value, second.Metrics[name].Value; a != b {
				t.Errorf("%s: %s differs between two runs at one seed: %v vs %v", wl, name, a, b)
			}
		}
		o.trace = true
		traced, err := run(wl, o)
		if err != nil {
			t.Fatalf("%s traced: %v", wl, err)
		}
		checkPrinted(t, wl, traced, perLayer, false)
	}
}

func TestModuleOf(t *testing.T) {
	for _, c := range []struct{ fn, file, want string }{
		{repoInternal + "secchan.(*Conn).Send", "/x/internal/secchan/secchan.go", "secchan"},
		{repoInternal + "monitor.(*Monitor).Audit", "/x/internal/monitor/audit.go", "audit"},
		{repoInternal + "monitor.(*Monitor).wdSweep", "/x/internal/monitor/watchdog.go", "audit"},
		{repoInternal + "monitor.(*Monitor).EMCMapUser", "/x/internal/monitor/mmu.go", "monitor"},
		{repoInternal + "workloads/llm.(*LLM).Run", "/x/internal/workloads/llm/llm.go", "workloads"},
		{repoInternal + "costs.Copy", "/x/internal/costs/costs.go", "other"},
		{"crypto/ecdsa.Verify", "/go/src/crypto/ecdsa/ecdsa.go", ""},
		{"main.runApps", "/x/perfbench/apps.go", "bench"},
	} {
		if got := moduleOf(c.fn, c.file); got != c.want {
			t.Errorf("moduleOf(%q) = %q, want %q", c.fn, got, c.want)
		}
	}
}
