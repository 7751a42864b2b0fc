package main

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"github.com/asterisc-release/erebor-go/internal/costs"
	"github.com/asterisc-release/erebor-go/internal/harness"
	"github.com/asterisc-release/erebor-go/internal/workloads"
	"github.com/asterisc-release/erebor-go/internal/workloads/graph"
	"github.com/asterisc-release/erebor-go/internal/workloads/ids"
	"github.com/asterisc-release/erebor-go/internal/workloads/imgproc"
	"github.com/asterisc-release/erebor-go/internal/workloads/llm"
	"github.com/asterisc-release/erebor-go/internal/workloads/retrieval"
)

// paperGeomeanPct is the paper's Fig 9 geomean overhead of full Erebor over
// native.
const paperGeomeanPct = 8.1

// appsSuite builds the paper's five programs at scale 1. Their datasets are
// fixed by the constructors; the run seed does not reach them.
func appsSuite(tiny bool) []workloads.Workload {
	if tiny {
		return []workloads.Workload{retrieval.New(1), ids.New(1)}
	}
	return []workloads.Workload{
		llm.New(1), imgproc.New(1), retrieval.New(1), graph.New(1), ids.New(1),
	}
}

// appsPass is one pass over the suite: every program native, LibOS-only and
// full Erebor.
type appsPass struct {
	sets     []*harness.ScenarioSet
	host     time.Duration // summed RunScenario wall time
	ops      int
	alloc    uint64
	heap     uint64
	failures []string
}

// signature renders everything the modeled system decided in a pass, for
// the determinism checks.
func (p *appsPass) signature() string {
	var b strings.Builder
	for _, s := range p.sets {
		for _, r := range []*harness.ScenarioResult{s.Native, s.LibOS, s.Erebor} {
			fmt.Fprintf(&b, "%s/%s init=%d run=%d pf=%d tt=%d ve=%d exits=%d emcs=%d emc=%d out=%q\n",
				r.Workload, r.Config, r.InitCycles, r.RunCycles, r.PageFaults, r.TimerTicks,
				r.VEExits, r.SandboxExits, r.EMCs, r.EMCCycles, r.Output)
		}
	}
	return b.String()
}

// runAppsPass runs one pass. Each RunScenario call is timed on its own,
// after a forced GC, so every op starts from the same heap state.
func runAppsPass(suite []workloads.Workload, trace bool, spans *spanLog) *appsPass {
	p := &appsPass{}
	opt := harness.DefaultScenarioOptions()
	opt.Trace = trace
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for _, wl := range suite {
		set := &harness.ScenarioSet{}
		for _, cfg := range harness.AllConfigs {
			freshHeap()
			var r *harness.ScenarioResult
			var err error
			p.host += spans.time("RunScenario", func() { r, err = harness.RunScenario(wl, cfg, opt) })
			p.ops++
			if err != nil {
				p.failures = append(p.failures, fmt.Sprintf("%s/%s: %v", wl.Name(), cfg, err))
				set = nil
				break
			}
			switch cfg {
			case harness.CfgNative:
				set.Native = r
			case harness.CfgLibOSOnly:
				set.LibOS = r
			default:
				set.Erebor = r
			}
		}
		if set == nil {
			continue
		}
		// The sandboxed runs must compute exactly what the native run did.
		for _, r := range []*harness.ScenarioResult{set.LibOS, set.Erebor} {
			if r.Output != set.Native.Output {
				p.failures = append(p.failures, fmt.Sprintf("%s/%s: output differs from native", r.Workload, r.Config))
			}
		}
		p.sets = append(p.sets, set)
	}
	runtime.ReadMemStats(&ms1)
	p.alloc = ms1.TotalAlloc - ms0.TotalAlloc
	runtime.GC()
	runtime.ReadMemStats(&ms1)
	p.heap = ms1.HeapAlloc
	return p
}

// runApps drives the apps workload for o.seconds: the suite is built five
// times (set-up), then passes repeat. Every pass must reproduce the first
// pass's modeled results exactly, traced or not.
func runApps(o options) (*result, error) {
	spans := &spanLog{}
	var suite []workloads.Workload
	var setup []float64
	for i := 0; i < 5; i++ {
		freshHeap()
		d := spans.time("suite", func() {
			suite = appsSuite(o.tiny)
			for _, wl := range suite {
				_ = wl.CommonData()
				_ = wl.Input()
			}
		})
		setup = append(setup, d.Seconds())
	}
	hp := newHostProfile()
	var ref string
	var untraced, traced []*appsPass
	attempted, failed := 0, 0
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < o.seconds; i++ {
		for _, tr := range []bool{false, true} {
			if tr && !o.trace {
				continue
			}
			var p *appsPass
			if tr {
				if err := hp.profiled(func() { p = runAppsPass(suite, true, spans) }); err != nil {
					return nil, err
				}
			} else {
				p = runAppsPass(suite, false, spans)
			}
			sig := p.signature()
			if ref == "" {
				ref = sig
			} else if sig != ref {
				return nil, fmt.Errorf("determinism: apps pass (traced=%v) differs from the first pass", tr)
			}
			o.logf("pass %d traced=%v host/op=%.0fus alloc=%dKiB heap=%.1fMiB", i, tr,
				float64(p.host.Nanoseconds())/1e3/float64(p.ops), p.alloc>>10, float64(p.heap)/(1<<20))
			attempted += p.ops
			failed += len(p.failures)
			for _, f := range p.failures {
				o.logf("FAILED: %s", f)
			}
			if tr {
				traced = append(traced, p)
			} else {
				untraced = append(untraced, p)
			}
		}
	}
	if failed > attempted {
		failed = attempted
	}
	res := newResult(attempted, failed)
	first := untraced[0]
	overheads := make(map[string]float64)
	var full []float64
	var runCycles, initCycles []uint64
	var runSec float64
	for _, s := range first.sets {
		row := s.Fig9()
		overheads[row.Program] = row.Full * 100
		full = append(full, row.Full)
		runCycles = append(runCycles, s.Erebor.RunCycles)
		initCycles = append(initCycles, s.Erebor.InitCycles)
		runSec += s.Erebor.RunSeconds()
	}
	overhead := harness.Geomean(full) * 100
	if !o.trace {
		res.set("session_p50_vcycles", float64(percentile(runCycles, 0.50)))
		res.set("session_p99_vcycles", float64(percentile(runCycles, 0.99)))
		res.set("first_compute_p50_vcycles", float64(percentile(initCycles, 0.50)))
		if runSec > 0 {
			res.set("sessions_per_vs", float64(len(runCycles))/runSec)
		}
		res.set("overhead_pct", overhead)
		var alloc, heap []float64
		for _, p := range untraced {
			alloc = append(alloc, float64(p.alloc)/float64(p.ops)/1024)
			heap = append(heap, float64(p.heap)/(1<<20))
		}
		res.set("host_us_per_op", appsHostPerOp(untraced))
		res.set("alloc_kb_per_op", median(alloc))
		res.set("heap_mb", median(heap))
		res.set("setup_s", median(setup))
		return res, nil
	}
	res.setLayers(appsLayers(traced[0], overheads, overhead))
	res.setHostLayers(hp, 1/float64(len(traced)))
	res.setTraceOverhead(appsHostPerOp(untraced), appsHostPerOp(traced))
	o.logSpans(spans)
	return res, nil
}

// appsHostPerOp is the median over passes of host µs per scenario run.
func appsHostPerOp(ps []*appsPass) float64 {
	var xs []float64
	for _, p := range ps {
		xs = append(xs, float64(p.host.Nanoseconds())/1e3/float64(p.ops))
	}
	return median(xs)
}

// appsLayers reads the per-layer numbers of a traced pass from the
// ScenarioResult counters and the flight recorder's span histograms of the
// full-Erebor runs (the Table 6 convention), plus the LibOS's own cost over
// native.
func appsLayers(p *appsPass, overheads map[string]float64, overhead float64) map[string]float64 {
	l := map[string]float64{}
	var pf, emcs, runCycles float64
	for _, s := range p.sets {
		e := s.Erebor
		l["monitor.emcs"] += float64(e.EMCs)
		l["monitor.emc_vcycles"] += float64(e.EMCCycles)
		l["kernel.page_faults"] += float64(e.PageFaults)
		l["kernel.timer_ticks"] += float64(e.TimerTicks)
		l["kernel.ve_exits"] += float64(e.VEExits)
		for name, h := range e.Hists {
			switch {
			case strings.HasPrefix(name, "syscall/"):
				l["kernel.syscalls"] += float64(h.Count)
			case name == "page-fault":
				l["kernel.fault_vcycles"] += float64(h.Sum)
			}
		}
		l["libos.overhead_vcycles"] += float64(s.LibOS.RunCycles) - float64(s.Native.RunCycles)
		l["sandbox.launches"] += 2
		l["sandbox.launch_vcycles"] += float64(s.LibOS.InitCycles + e.InitCycles)
		pf += float64(e.PageFaults)
		emcs += float64(e.EMCs)
		runCycles += float64(e.RunCycles)
	}
	for prog, v := range overheads {
		l["apps."+prog+".overhead_pct"] = v
	}
	if runCycles > 0 {
		sec := runCycles / costs.HzPerSecond
		l["apps.pf_per_s"] = pf / sec
		l["apps.emc_per_s"] = emcs / sec
	}
	l["paper_err_pp"] = math.Abs(overhead - paperGeomeanPct)
	return l
}
