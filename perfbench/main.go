// Command perfbench is the repository benchmark: it drives three workloads
// through the public functions of internal/serve and internal/harness and
// prints, as the last line of stdout, one JSON object with the run's
// end-to-end metrics (--trace 0) or per-layer metrics (--trace 1).
//
//	bash perfbench/run.sh --workload churn --seed 1 --seconds 20 --trace 0
//
// See README.md for the workloads, the metrics and how the seed is used.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// options are the command-line settings of one run.
type options struct {
	seed    int64
	seconds time.Duration
	trace   bool
	// tiny shrinks every workload to a few sessions / two programs (the
	// self-test).
	tiny bool
	// quiet suppresses the human-readable stderr report.
	quiet bool
}

func (o options) logf(format string, args ...any) {
	if !o.quiet {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	}
}

// logSpans writes the benchmark's own spans as a per-name summary.
func (o options) logSpans(l *spanLog) {
	names, count, total := l.summary()
	for _, n := range names {
		o.logf("span %-12s n=%-4d total=%v", n, count[n], total[n].Round(time.Millisecond))
	}
}

// workloadsByName maps each workload to its driver.
var workloadsByName = map[string]func(options) (*result, error){
	// Each serving sample is 1024 sessions: 4 x 256 (churn), 8 x 128
	// (fork-bulk).
	"churn":     servingWorkload{slots: 16, perSlot: 16, seeds: 4, config: churnConfig}.run,
	"fork-bulk": servingWorkload{slots: 8, perSlot: 16, seeds: 8, config: forkBulkConfig}.run,
	"apps":      runApps,
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	values map[string]float64
}

func newResult(attempted, failed int) *result {
	return &result{Correct: failed == 0, Attempted: attempted, Failed: failed,
		values: map[string]float64{}}
}

func (r *result) set(name string, v float64) { r.values[name] = v }

// setLayers copies the catalogued per-layer values out of a raw layer map
// (which may hold helper entries the catalogue does not list).
func (r *result) setLayers(l map[string]float64) {
	for _, d := range perLayer {
		if v, ok := l[d.name]; ok {
			r.values[d.name] = v
		}
	}
}

// setHostLayers reports the CPU profile's per-module milliseconds, scaled
// by scale to one sample's worth of ops.
func (r *result) setHostLayers(hp *hostProfile, scale float64) {
	for _, m := range hostModules {
		r.values[m+".host_ms"] = hp.ms[m] * scale
	}
}

// setTraceOverhead records how much slower traced ops ran than untraced.
func (r *result) setTraceOverhead(untraced, traced float64) {
	if untraced > 0 {
		r.values["bench.trace_overhead_pct"] = 100 * (traced/untraced - 1)
	}
}

// finish fills Metrics with every metric the run's mode prints, in
// catalogue order (unmeasured per-layer values read 0).
func (r *result) finish(trace bool) {
	r.values["failed_frac"] = float64(r.Failed) / float64(r.Attempted)
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	r.Metrics = make(map[string]metricValue, len(defs))
	for _, d := range defs {
		r.Metrics[d.name] = metricValue{r.values[d.name], d.unit}
	}
}

// freshHeap collects garbage before a timed op, so no op pays for
// collecting the worlds its predecessors left behind.
func freshHeap() {
	runtime.GC()
}

// run executes one workload and returns its result with Metrics filled.
func run(name string, o options) (*result, error) {
	drive, ok := workloadsByName[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	res, err := drive(o)
	if err != nil {
		return nil, err
	}
	res.finish(o.trace)
	return res, nil
}

func main() {
	workload := flag.String("workload", "", "workload: churn | fork-bulk | apps")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measurement time in seconds")
	trace := flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
	flag.Parse()
	// The simulation is single-threaded; two Ps leave room for the GC.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	o := options{seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		trace: *trace != 0}
	res, err := run(*workload, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		o.logf("%-34s %18.6f %s", n, m.Value, m.Unit)
	}
	o.logf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}
