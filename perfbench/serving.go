package main

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"time"

	"github.com/asterisc-release/erebor-go/internal/costs"
	"github.com/asterisc-release/erebor-go/internal/cpu"
	"github.com/asterisc-release/erebor-go/internal/metrics"
	"github.com/asterisc-release/erebor-go/internal/serve"
)

// servingWorkload is a closed loop over a fixed number of server slots: each
// slot is one client that waits for its reply before its next tenant is
// admitted. One batch is one serve.New + Server.Run over slots*perSlot
// sessions. The modeled-system sample is the first `seeds` batches, each
// with its own request seed; later batches replay those seeds to add host
// timing samples and must reproduce their twin's report byte for byte.
type servingWorkload struct {
	slots   int
	perSlot int
	seeds   int
	config  func(slots, sessions int, seed int64) serve.Config
}

func churnConfig(slots, sessions int, seed int64) serve.Config {
	return serve.Config{
		Tenants: slots, Sessions: sessions, Seed: seed, VCPUs: 2, MemMB: 256,
		InputBytes: 1 << 10, ModelBytes: 64 << 10,
		Egress: serve.DefaultEgressSpec(),
	}
}

func forkBulkConfig(slots, sessions int, seed int64) serve.Config {
	return serve.Config{
		Tenants: slots, Sessions: sessions, Seed: seed, VCPUs: 2, MemMB: 256,
		InputBytes: 32 << 10, ModelBytes: 64 << 10,
		ForkPool: true, RingMMU: true, Watchdog: true,
	}
}

// workerCyclesPerByte is the compute the serving worker charges per request
// byte (internal/serve's worker body): the useful work a session asks for,
// against which a serving workload's overhead_pct is measured.
const workerCyclesPerByte = 2

// batchSeed derives the request seed of sample batch k from the run seed.
func batchSeed(seed int64, k int) int64 { return seed*16 + int64(k) }

// servingBatch is one measured batch.
type servingBatch struct {
	sessions   int
	inputBytes int
	rep        *serve.Report
	repJSON    []byte
	serial     uint64        // Run's elapsed cycles on the serial virtual clock
	setup      time.Duration // serve.New
	host       time.Duration // Server.Run
	alloc      uint64        // Go heap bytes allocated during Run
	heap       uint64        // live Go heap after Run and a forced GC
	failures   []string
	layers     map[string]float64 // traced batches only
}

// tdcallMeter wraps the machine's TDX module from outside the program and
// counts tdcalls and the virtual cycles spent inside them. It reads the
// clock and never charges it.
type tdcallMeter struct {
	inner  cpu.TDCallHandler
	calls  uint64
	cycles uint64
}

func (t *tdcallMeter) TDCall(core *cpu.Core, leaf uint64, args []uint64) ([]uint64, *cpu.Trap) {
	c0 := core.Machine.Clock.Now()
	ret, trap := t.inner.TDCall(core, leaf, args)
	t.calls++
	t.cycles += core.Machine.Clock.Now() - c0
	return ret, trap
}

// counters snapshots the cumulative program counters the per-layer metrics
// are deltas of.
func counters(s *serve.Server) map[string]float64 {
	w := s.World()
	c := map[string]float64{}
	st := w.Mon.Stats
	c["tdx.quotes"] = float64(st.QuotesIssued)
	c["monitor.emcs"] = float64(st.EMCs)
	c["monitor.pte_writes"] = float64(st.PTEWrites)
	c["monitor.user_copies"] = float64(st.UserCopies)
	for _, v := range w.Mon.EMCCyclesByKind() {
		c["monitor.emc_vcycles"] += float64(v)
	}
	c["audit.sweeps"] = float64(w.Mon.WatchdogSweeps())
	sum := func(family string) float64 {
		var t float64
		for _, sv := range w.Met.Series(family) {
			t += float64(sv.Value)
		}
		return t
	}
	c["secchan.frames"] = sum(metrics.FamilyChannelFrames)
	c["monitor.ring_drains"] = sum(metrics.FamilyEMCRingDrains)
	c["ring_ops"] = sum(metrics.FamilyEMCRingOps)
	if l := s.Ledger(); l != nil {
		allowed, denied := l.Counts()
		c["egress.decisions"] = float64(allowed + denied)
		c["egress.denied"] = float64(denied)
	}
	for _, core := range w.M.Cores {
		c["tlb_hits"] += float64(core.TLBHits)
		c["cpu.page_walks"] += float64(core.TLBMisses)
		c["cpu.tlb_invalidations"] += float64(core.TLBInvalidations)
	}
	c["cpu.ipis_sent"] = float64(w.M.IPIsSent)
	c["cpu.ipis_skipped"] = float64(w.M.IPIsSkipped)
	c["cpu.shootdown_vcycles"] = float64(w.M.ShootdownCycles)
	ks := w.K.Stats
	c["kernel.page_faults"] = float64(ks.PageFaults)
	c["kernel.syscalls"] = float64(ks.Syscalls)
	c["kernel.timer_ticks"] = float64(ks.TimerTicks)
	c["kernel.ve_exits"] = float64(ks.VEExits)
	return c
}

// runServingBatch boots one server, serves every session, and checks the
// outcome. traced runs attach the program's profiler and flight recorder
// (cfg.Profile/cfg.Trace), meter tdcalls, and record the host CPU profile.
func runServingBatch(cfg serve.Config, hp *hostProfile, spans *spanLog) (*servingBatch, error) {
	traced := cfg.Profile
	b := &servingBatch{sessions: cfg.Sessions, inputBytes: cfg.InputBytes}
	freshHeap()
	var s *serve.Server
	var err error
	b.setup = spans.time("serve.New", func() { s, err = serve.New(cfg) })
	if err != nil {
		return nil, err
	}
	w := s.World()
	var meter *tdcallMeter
	rounds := 0
	var before map[string]float64
	if traced {
		meter = &tdcallMeter{inner: w.M.TDX}
		w.M.TDX = meter
		s.Hook = func(int) { rounds++ }
		before = counters(s)
	}
	c0 := w.M.Clock.Now()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	run := func() {
		b.host = spans.time("Server.Run", func() { b.rep, err = s.Run() })
	}
	if traced {
		if perr := hp.profiled(run); perr != nil {
			return nil, perr
		}
	} else {
		run()
	}
	runtime.ReadMemStats(&ms1)
	if err != nil {
		return nil, err
	}
	b.serial = w.M.Clock.Now() - c0
	b.alloc = ms1.TotalAlloc - ms0.TotalAlloc
	b.repJSON = b.rep.JSON()
	if traced {
		if err := b.traceLayers(s, b.serial, before, meter, rounds); err != nil {
			return nil, err
		}
	}
	b.failures = checkServing(s, cfg, b.rep)
	runtime.GC()
	runtime.ReadMemStats(&ms1)
	b.heap = ms1.HeapAlloc
	runtime.KeepAlive(s)
	return b, nil
}

// checkServing is the correctness gate of one batch: every session
// completed with a full-length validated reply (the server compares each
// reply byte against the expected transform), the watchdog saw no
// non-injected violation, a final audit finds nothing, and a fork template
// releases cleanly.
func checkServing(s *serve.Server, cfg serve.Config, rep *serve.Report) []string {
	var bad []string
	if rep.Completed+rep.Failed != cfg.Sessions {
		bad = append(bad, fmt.Sprintf("%d sessions accounted for, want %d", rep.Completed+rep.Failed, cfg.Sessions))
	}
	for _, r := range rep.Results {
		switch {
		case r.Err != "":
			bad = append(bad, fmt.Sprintf("tenant %d: %s", r.Tenant, r.Err))
		case r.ReplyBytes != cfg.InputBytes:
			bad = append(bad, fmt.Sprintf("tenant %d: reply %d bytes, want %d", r.Tenant, r.ReplyBytes, cfg.InputBytes))
		}
	}
	mon := s.World().Mon
	if n := mon.WatchdogNonInjected(); n > 0 {
		bad = append(bad, fmt.Sprintf("watchdog: %d non-injected violations", n))
	}
	if cfg.ForkPool {
		if err := s.ReleaseTemplate(); err != nil {
			bad = append(bad, fmt.Sprintf("fork template release: %v", err))
		}
	}
	for _, v := range mon.Audit() {
		bad = append(bad, fmt.Sprintf("audit: %v", v))
	}
	return bad
}

// traceLayers reads the per-layer numbers of a traced batch out of the
// program's profiler, flight recorder and counters, after checking that the
// profile conserves: every virtual cycle of Run lands in exactly one
// (tenant, phase) bucket, and the buckets sum to Run's serial elapsed
// cycles.
func (b *servingBatch) traceLayers(s *serve.Server, elapsed uint64, before map[string]float64,
	meter *tdcallMeter, rounds int) error {
	p := s.Profiler()
	if bad := p.CheckConservation(s.World().Met); len(bad) > 0 {
		return fmt.Errorf("profile does not conserve: %s", strings.Join(bad, "; "))
	}
	l := map[string]float64{}
	var phaseSum uint64
	for k, v := range p.Totals() {
		l["phase."+k.Phase+".vcycles"] += float64(v)
		phaseSum += v
	}
	if phaseSum != elapsed {
		return fmt.Errorf("phase cycles sum to %d, Run took %d", phaseSum, elapsed)
	}
	var stackSum uint64
	for stack, v := range p.Stacks() {
		stackSum += v
		frames := strings.Split(stack, ";")
		leaf := frames[len(frames)-1]
		switch {
		case strings.HasPrefix(leaf, "monitor/gate/"):
			l["monitor.gate_vcycles"] += float64(v)
		case leaf == "cpu/copy":
			l["cpu.copy_vcycles"] += float64(v)
		case leaf == "user/compute":
			l["libos.user_vcycles"] += float64(v)
		}
		if strings.Contains(stack, ";kernel/page-fault") {
			l["kernel.fault_vcycles"] += float64(v)
		}
	}
	if stackSum != elapsed {
		return fmt.Errorf("profile stacks sum to %d, Run took %d", stackSum, elapsed)
	}
	after := counters(s)
	for k, v := range after {
		l[k] = v - before[k]
	}
	for key, n := range s.World().Rec.Counts() {
		kind, label, _ := strings.Cut(key, "|")
		switch {
		case kind == "dispatch":
			l["kernel.dispatches"] += float64(n)
		case kind == "phase" && label == metrics.PhaseHandshake:
			l["secchan.handshakes"] += float64(n)
		case kind == "phase" && label == metrics.PhaseInstall:
			l["attest.verifies"] += float64(n)
		}
	}
	rep := b.rep
	l["secchan.retransmits"] = float64(rep.ChannelRetrans)
	l["tdx.tdcalls"] = float64(meter.calls)
	l["tdx.tdcall_vcycles"] = float64(meter.cycles)
	l["monitor.recycle_vcycles"] = float64(rep.RecycleCycles)
	l["monitor.fork_vcycles"] = float64(rep.ForkCycles)
	l["monitor.cow_breaks"] = float64(rep.CowBreaks)
	launches := rep.Relaunches
	if rep.Forks == 0 {
		launches += rep.Tenants
	}
	l["sandbox.launches"] = float64(launches)
	l["sandbox.launch_vcycles"] = float64(rep.LaunchCycles)
	l["mem.frames_allocated"] = float64(s.World().Phys.AllocatedFrames())
	l["serve.rounds"] = float64(rounds)
	b.layers = l
	return nil
}

// run drives the workload for o.seconds. Untraced runs report the
// end-to-end metrics; traced runs alternate untraced and traced batches of
// each sample seed and report the per-layer metrics.
func (sw servingWorkload) run(o options) (*result, error) {
	perSlot, seeds := sw.perSlot, sw.seeds
	if o.tiny {
		perSlot, seeds = 2, 1
	}
	sessions := sw.slots * perSlot
	cfgFor := func(k int, traced bool) serve.Config {
		cfg := sw.config(sw.slots, sessions, batchSeed(o.seed, k))
		cfg.Profile, cfg.Trace = traced, traced
		return cfg
	}
	spans := &spanLog{}
	hp := newHostProfile()
	refs := make([][]byte, seeds)
	var untraced, traced []*servingBatch
	attempted, failed := 0, 0
	add := func(k int, tr bool) error {
		b, err := runServingBatch(cfgFor(k, tr), hp, spans)
		if err != nil {
			return err
		}
		if refs[k] == nil {
			refs[k] = b.repJSON
		} else if !bytes.Equal(refs[k], b.repJSON) {
			return fmt.Errorf("determinism: seed %d batch (traced=%v) report differs from its first run",
				batchSeed(o.seed, k), tr)
		}
		o.logf("batch seed=%d traced=%v setup=%v host/op=%.0fus alloc=%dKiB heap=%.1fMiB",
			batchSeed(o.seed, k), tr, b.setup.Round(time.Millisecond),
			float64(b.host.Nanoseconds())/1e3/float64(b.sessions), b.alloc>>10, float64(b.heap)/(1<<20))
		attempted += b.sessions
		failed += len(b.failures)
		for _, f := range b.failures {
			o.logf("FAILED: %s", f)
		}
		if tr {
			traced = append(traced, b)
		} else {
			untraced = append(untraced, b)
		}
		return nil
	}
	start := time.Now()
	for i := 0; i < seeds || time.Since(start) < o.seconds; i++ {
		if err := add(i%seeds, false); err != nil {
			return nil, err
		}
		if o.trace {
			if err := add(i%seeds, true); err != nil {
				return nil, err
			}
		}
	}
	if failed > attempted {
		failed = attempted
	}
	res := newResult(attempted, failed)
	if !o.trace {
		servingEndToEnd(res, untraced[:seeds], untraced)
		return res, nil
	}
	layers := map[string]float64{}
	for _, b := range traced[:seeds] {
		for k, v := range b.layers {
			layers[k] += v
		}
	}
	if d := layers["monitor.ring_drains"]; d > 0 {
		layers["monitor.ring_ops_per_drain"] = layers["ring_ops"] / d
	}
	if n := layers["tlb_hits"] + layers["cpu.page_walks"]; n > 0 {
		layers["cpu.tlb_hit_ratio"] = layers["tlb_hits"] / n
	}
	res.setLayers(layers)
	res.setHostLayers(hp, float64(seeds)/float64(len(traced)))
	res.setTraceOverhead(hostPerOp(untraced), hostPerOp(traced))
	o.logSpans(spans)
	return res, nil
}

// hostPerOp is the median over batches of host µs per session.
func hostPerOp(bs []*servingBatch) float64 {
	var xs []float64
	for _, b := range bs {
		xs = append(xs, float64(b.host.Nanoseconds())/1e3/float64(b.sessions))
	}
	return median(xs)
}

// servingEndToEnd fills the end-to-end metrics: modeled-system figures from
// the sample batches, host figures as medians over every batch.
func servingEndToEnd(res *result, sample, all []*servingBatch) {
	var cycles, firstCompute []uint64
	var completed int
	var wall, serial, useful uint64
	for _, b := range sample {
		for _, r := range b.rep.Results {
			if r.Err != "" {
				continue
			}
			cycles = append(cycles, r.Cycles)
			if r.FirstCompute > 0 {
				firstCompute = append(firstCompute, r.FirstCompute)
			}
		}
		completed += b.rep.Completed
		wall += b.rep.TotalCycles
		serial += b.serial
		useful += uint64(b.rep.Completed) * workerCyclesPerByte * uint64(b.inputBytes)
	}
	res.set("session_p50_vcycles", float64(percentile(cycles, 0.50)))
	res.set("session_p99_vcycles", float64(percentile(cycles, 0.99)))
	res.set("first_compute_p50_vcycles", float64(percentile(firstCompute, 0.50)))
	if wall > 0 {
		res.set("sessions_per_vs", float64(completed)/(float64(wall)/float64(costs.HzPerSecond)))
	}
	if useful > 0 {
		res.set("overhead_pct", 100*(float64(serial)/float64(useful)-1))
	}
	var alloc, heap, setup []float64
	for _, b := range all {
		alloc = append(alloc, float64(b.alloc)/float64(b.sessions)/1024)
		heap = append(heap, float64(b.heap)/(1<<20))
		setup = append(setup, b.setup.Seconds())
	}
	res.set("host_us_per_op", hostPerOp(all))
	res.set("alloc_kb_per_op", median(alloc))
	res.set("heap_mb", median(heap))
	res.set("setup_s", median(setup))
}
