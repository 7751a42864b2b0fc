package main

// metricDef names one reported metric and its unit.
type metricDef struct {
	name string
	unit string
}

// endToEnd lists the metrics an untraced run (--trace 0) prints, in the
// order BENCHMARK.json declares them. Every workload prints every one; see
// README.md for what "session" and "overhead" mean on each workload.
var endToEnd = []metricDef{
	{"session_p50_vcycles", "vcycles"},
	{"session_p99_vcycles", "vcycles"},
	{"first_compute_p50_vcycles", "vcycles"},
	{"sessions_per_vs", "1/vs"},
	{"overhead_pct", "%"},
	{"host_us_per_op", "us"},
	{"alloc_kb_per_op", "KiB"},
	{"heap_mb", "MiB"},
	{"setup_s", "s"},
}

// appPrograms are the paper's five Fig 9 programs, in suite order, with the
// workload name each constructor reports.
var appPrograms = []string{"llama.cpp", "yolo", "drugbank", "graphchi", "unicorn"}

// hostModules are the modules CPU-profile samples are charged to (see
// hostprof.go). "runtime" holds samples with no repo frame on the stack
// (GC workers, scheduler); "bench" holds the benchmark's own frames.
var hostModules = []string{
	"secchan", "attest", "tdx", "egress", "monitor", "audit", "cpu", "kernel",
	"libos", "sandbox", "mem", "paging", "task", "serve", "harness",
	"workloads", "trace", "metrics", "prof", "other", "runtime", "bench",
}

// perLayer lists the metrics a traced run (--trace 1) prints. A layer a
// workload does not load, or that its harness does not expose, reads 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"secchan.handshakes", "count"},
		{"secchan.frames", "count"},
		{"secchan.retransmits", "count"},
		{"attest.verifies", "count"},
		{"tdx.quotes", "count"},
		{"tdx.tdcalls", "count"},
		{"tdx.tdcall_vcycles", "vcycles"},
		{"egress.decisions", "count"},
		{"egress.denied", "count"},
		{"phase.launch.vcycles", "vcycles"},
		{"phase.handshake.vcycles", "vcycles"},
		{"phase.install.vcycles", "vcycles"},
		{"phase.compute.vcycles", "vcycles"},
		{"phase.output.vcycles", "vcycles"},
		{"phase.recycle.vcycles", "vcycles"},
		{"phase.fleet.vcycles", "vcycles"},
		{"monitor.emcs", "count"},
		{"monitor.emc_vcycles", "vcycles"},
		{"monitor.gate_vcycles", "vcycles"},
		{"monitor.pte_writes", "count"},
		{"monitor.user_copies", "count"},
		{"monitor.ring_drains", "count"},
		{"monitor.ring_ops_per_drain", "ratio"},
		{"monitor.recycle_vcycles", "vcycles"},
		{"monitor.fork_vcycles", "vcycles"},
		{"monitor.cow_breaks", "count"},
		{"audit.sweeps", "count"},
		{"cpu.tlb_hit_ratio", "ratio"},
		{"cpu.page_walks", "count"},
		{"cpu.tlb_invalidations", "count"},
		{"cpu.ipis_sent", "count"},
		{"cpu.ipis_skipped", "count"},
		{"cpu.shootdown_vcycles", "vcycles"},
		{"cpu.copy_vcycles", "vcycles"},
		{"kernel.page_faults", "count"},
		{"kernel.fault_vcycles", "vcycles"},
		{"kernel.syscalls", "count"},
		{"kernel.timer_ticks", "count"},
		{"kernel.ve_exits", "count"},
		{"kernel.dispatches", "count"},
		{"libos.user_vcycles", "vcycles"},
		{"libos.overhead_vcycles", "vcycles"},
		{"sandbox.launches", "count"},
		{"sandbox.launch_vcycles", "vcycles"},
		{"mem.frames_allocated", "count"},
		{"serve.rounds", "count"},
	}
	for _, p := range appPrograms {
		defs = append(defs, metricDef{"apps." + p + ".overhead_pct", "%"})
	}
	defs = append(defs,
		metricDef{"apps.pf_per_s", "1/s"},
		metricDef{"apps.emc_per_s", "1/s"},
		metricDef{"paper_err_pp", "pp"},
		metricDef{"failed_frac", "fraction"},
		metricDef{"bench.trace_overhead_pct", "%"},
	)
	for _, m := range hostModules {
		defs = append(defs, metricDef{m + ".host_ms", "ms"})
	}
	return defs
}()
