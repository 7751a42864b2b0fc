package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/asterisc-release/erebor-go/internal/audit"
	"github.com/asterisc-release/erebor-go/internal/faultinject"
	"github.com/asterisc-release/erebor-go/internal/mem"
	"github.com/asterisc-release/erebor-go/internal/metrics"
	"github.com/asterisc-release/erebor-go/internal/monitor"
	"github.com/asterisc-release/erebor-go/internal/paging"
)

// TestWatchdogCatchesInjectedBreak seeds a deliberate invariant violation —
// a second mapping of a confined frame, exactly what I4 forbids — in the
// middle of a serving run and asserts the continuous watchdog reports the
// typed code within one sweep interval of the tampering.
func TestWatchdogCatchesInjectedBreak(t *testing.T) {
	const every = 50_000 // tight cadence so detection latency is visible
	s, err := New(Config{Tenants: 2, Sessions: 4, Seed: 3, Watchdog: true, WatchdogEvery: every})
	if err != nil {
		t.Fatal(err)
	}
	mon := s.World().Mon
	var injectedAt, sweepsAtInject uint64
	s.Hook = func(round int) {
		if round != 3 || injectedAt != 0 {
			return
		}
		code, ierr := mon.InjectAuditViolation()
		if ierr != nil {
			t.Fatalf("inject: %v", ierr)
		}
		if code != audit.ConfinedMultiMapped {
			t.Fatalf("injected code %v, want %v", code, audit.ConfinedMultiMapped)
		}
		injectedAt = s.World().M.Clock.Now()
		sweepsAtInject = mon.WatchdogSweeps()
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if injectedAt == 0 {
		t.Fatal("hook never fired: run finished before round 3")
	}

	events := mon.WatchdogEvents()
	if len(events) == 0 {
		t.Fatal("watchdog observed no events after an injected violation")
	}
	first := events[0]
	if first.Code != audit.ConfinedMultiMapped.String() {
		t.Fatalf("first event code %q, want %q", first.Code, audit.ConfinedMultiMapped)
	}
	if first.Invariant != "I4" {
		t.Fatalf("first event invariant %q, want I4", first.Invariant)
	}
	if first.Severity != "injected" {
		t.Fatalf("first event severity %q, want injected (announced break)", first.Severity)
	}
	if first.Cycles < injectedAt {
		t.Fatalf("detection at cycle %d precedes injection at %d", first.Cycles, injectedAt)
	}
	// Detection within one sweep: the very first sweep that runs after the
	// tampering must observe the violation (the alias persists until slot
	// teardown removes the sandbox, so a miss would be a real audit gap).
	log := mon.WatchdogSweepLog()
	if uint64(len(log)) <= sweepsAtInject {
		t.Fatal("no sweeps ran after injection")
	}
	if firstSweep := log[sweepsAtInject]; firstSweep.Violations == 0 {
		t.Fatalf("first post-injection sweep (%s @%d) observed no violations",
			firstSweep.Trigger, firstSweep.Cycles)
	}
	if first.Cycles != log[sweepsAtInject].Cycles {
		t.Fatalf("first event at cycle %d, first post-injection sweep at %d",
			first.Cycles, log[sweepsAtInject].Cycles)
	}
	// The break was announced, so the CI health verdict stays green while
	// the violation counter itself records the observations.
	if n := mon.WatchdogNonInjected(); n != 0 {
		t.Fatalf("non-injected count %d for an announced break", n)
	}
	got := s.World().Met.Value(metrics.FamilyWatchdogViolations,
		metrics.KV("code", audit.ConfinedMultiMapped.String()), metrics.KV("severity", "injected"))
	if got == 0 {
		t.Fatal("violation counter not incremented")
	}
}

// TestPhaseConservation64Tenants: in a 64-tenant fleet, the per-tenant
// per-phase cycle attribution sums exactly to the serving run's elapsed
// virtual cycles — no cycle is double-counted or dropped. A failing MMU
// batch injected mid-run exercises the rollback path (including its
// rollback shootdown) to verify conservation survives EMC failures, not
// just the happy path.
func TestPhaseConservation64Tenants(t *testing.T) {
	cfg := Config{Tenants: 64, Sessions: 64, Seed: 5, MemMB: 512, Watchdog: true}
	if testing.Short() {
		cfg = Config{Tenants: 8, Sessions: 16, Seed: 5, Watchdog: true}
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	batchFailed := false
	var injectedCycles uint64
	s.Hook = func(round int) {
		if round != 3 || batchFailed {
			return
		}
		batchFailed = true
		mon := s.World().Mon
		c := s.World().Core()
		injectStart := mon.M.Clock.Now()
		defer func() { injectedCycles = mon.M.Clock.Now() - injectStart }()
		owner := mem.OwnerTaskBase + 200
		asid, cerr := mon.EMCCreateAS(c, owner)
		if cerr != nil {
			t.Fatalf("inject: create AS: %v", cerr)
		}
		orig, _ := mon.M.Phys.Alloc(owner)
		repl, _ := mon.M.Phys.Alloc(owner)
		far, _ := mon.M.Phys.Alloc(owner)
		// Build the page tables for 0x10_0000 while the pool still has
		// frames, then exhaust the monitor pool so the batch's third request
		// (a fresh 2 MiB region needing a new page-table page) must fail.
		if merr := mon.EMCMapUser(c, asid, 0x10_0000, orig, monitor.MapFlags{Writable: true}); merr != nil {
			t.Fatalf("inject: pre-map: %v", merr)
		}
		var drained []mem.Frame
		for {
			f, aerr := mon.M.Phys.AllocRegion(monitor.RegionMonitor, mem.OwnerMonitor)
			if aerr != nil {
				break
			}
			drained = append(drained, f)
		}
		reqs := []monitor.MapReq{
			{VA: 0x10_0000, Frame: repl, Flags: monitor.MapFlags{Writable: true}},
			{VA: paging.Addr(0x4000_0000), Frame: far, Flags: monitor.MapFlags{Writable: true}},
		}
		if berr := mon.EMCMapUserBatch(c, asid, reqs); berr == nil {
			t.Error("inject: batch committed despite page-table exhaustion")
		}
		// Restore the world: refill the pool, tear the scratch AS down, and
		// hand the frames back so the fleet (and the watchdog's census)
		// proceeds unperturbed.
		for _, f := range drained {
			_ = mon.M.Phys.Free(f)
		}
		if uerr := mon.EMCUnmapUser(c, asid, 0x10_0000); uerr != nil {
			t.Fatalf("inject: unmap: %v", uerr)
		}
		if derr := mon.EMCDestroyAS(c, asid); derr != nil {
			t.Fatalf("inject: destroy AS: %v", derr)
		}
		for _, f := range []mem.Frame{orig, repl, far} {
			_ = mon.M.Phys.Free(f)
		}
	}
	start, sdStart := s.World().M.Clock.Now(), s.World().M.ShootdownCycles
	rep, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	elapsed := s.World().M.Clock.Now() - start
	shootdowns := s.World().M.ShootdownCycles - sdStart
	if !batchFailed {
		t.Fatal("injected batch failure never ran (hook round not reached)")
	}
	if rep.Completed != cfg.Sessions {
		t.Fatalf("completed=%d failed=%d, want %d/0", rep.Completed, rep.Failed, cfg.Sessions)
	}

	rows := s.PhaseBreakdown()
	var attributed uint64
	tenants := make(map[int]bool)
	for _, r := range rows {
		attributed += r.Total
		tenants[r.Tenant] = true
		var rowSum uint64
		for _, c := range r.Cycles {
			rowSum += c
		}
		if rowSum != r.Total {
			t.Fatalf("tenant %d: phase cells sum to %d, row total %d", r.Tenant, rowSum, r.Total)
		}
	}
	if attributed != elapsed {
		t.Fatalf("conservation broken: %d cycles attributed, %d elapsed", attributed, elapsed)
	}
	// The shootdown split conserves the same way: every initiator-side
	// shootdown cycle of Run lands on exactly one tenant row.
	var attributedSD uint64
	for _, r := range rows {
		attributedSD += r.Shootdown
	}
	if shootdowns == 0 || attributedSD != shootdowns {
		t.Fatalf("shootdown split broken: %d cycles attributed, %d charged", attributedSD, shootdowns)
	}
	// Serial fleet: the report's wall total is the same serial elapsed time,
	// minus the injected batch-failure detour (charged on the clock and
	// attributed to phases, but outside the serving loop's wall ledger).
	if cfg.VCPUs <= 1 && rep.TotalCycles != elapsed-injectedCycles {
		t.Fatalf("wall total %d != serial elapsed %d - injected %d on one vCPU",
			rep.TotalCycles, elapsed, injectedCycles)
	}
	for tenant := 0; tenant < cfg.Sessions; tenant++ {
		if !tenants[tenant] {
			t.Fatalf("tenant %d has no attributed cycles", tenant)
		}
	}
	// Session outcome counters agree with the report.
	var ok uint64
	for _, sv := range s.World().Met.Series(metrics.FamilySessions) {
		ok += sv.Value
	}
	if ok != uint64(cfg.Sessions) {
		t.Fatalf("session counter total %d, want %d", ok, cfg.Sessions)
	}
	if n := s.World().Mon.WatchdogNonInjected(); n != 0 {
		t.Fatalf("watchdog: %d non-injected violations in a clean run", n)
	}
}

// TestTelemetryDeterminism: two identically-seeded watchdog runs — each with
// the same mid-run injected violation — produce byte-identical OpenMetrics
// exports and byte-identical watchdog JSONL event logs.
func TestTelemetryDeterminism(t *testing.T) {
	one := func() (om, jsonl []byte) {
		s, err := New(Config{Tenants: 4, Sessions: 8, Seed: 9, Trace: true,
			Watchdog: true, WatchdogEvery: 100_000})
		if err != nil {
			t.Fatal(err)
		}
		s.Hook = func(round int) {
			if round == 5 {
				if _, ierr := s.World().Mon.InjectAuditViolation(); ierr != nil {
					t.Fatalf("inject: %v", ierr)
				}
			}
		}
		if _, err := s.Run(); err != nil {
			t.Fatal(err)
		}
		var m, j bytes.Buffer
		if err := s.World().Met.ExportOpenMetrics(&m); err != nil {
			t.Fatal(err)
		}
		if err := s.World().Mon.ExportWatchdogJSONL(&j); err != nil {
			t.Fatal(err)
		}
		if j.Len() == 0 {
			t.Fatal("no watchdog events despite injected violation")
		}
		return m.Bytes(), j.Bytes()
	}
	om1, j1 := one()
	om2, j2 := one()
	if !bytes.Equal(om1, om2) {
		t.Error("OpenMetrics export differs between identically-seeded runs")
	}
	if !bytes.Equal(j1, j2) {
		t.Error("watchdog JSONL differs between identically-seeded runs")
	}
}

// TestTelemetryCycleNeutral: switching the watchdog on changes no virtual
// cycle — sweeps read the clock but never charge it, so the report (cycle
// figures included) is byte-identical with and without it.
func TestTelemetryCycleNeutral(t *testing.T) {
	run := func(wd bool) []byte {
		rep, err := Run(Config{Tenants: 4, Sessions: 8, Seed: 13, Watchdog: wd})
		if err != nil {
			t.Fatal(err)
		}
		return rep.JSON()
	}
	if off, on := run(false), run(true); !bytes.Equal(off, on) {
		t.Error("watchdog changed the report bytes: telemetry is not cycle-neutral")
	}
}

// TestWatchdogChaosFleet: the continuous watchdog rides along a 20-seed
// chaos campaign — faults on every tenant's untrusted hop, warm recycling,
// cold relaunches, worker kills — and never observes a single non-injected
// invariant violation. This is the CI health gate: hostile noise on the
// channel must not be able to push the monitor out of its §8 envelope.
func TestWatchdogChaosFleet(t *testing.T) {
	seeds, tenants, sessions := 20, 16, 32
	if testing.Short() {
		seeds = 5
	}
	for seed := 1; seed <= seeds; seed++ {
		plan := faultinject.Uniform(int64(seed), 0.05)
		s, err := New(Config{
			Tenants: tenants, Sessions: sessions, Seed: int64(seed), Chaos: &plan,
			Watchdog: true, WatchdogEvery: 500_000,
		})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := s.Run()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if rep.Completed+rep.Failed != sessions {
			t.Fatalf("seed %d: %d+%d sessions accounted, want %d",
				seed, rep.Completed, rep.Failed, sessions)
		}
		mon := s.World().Mon
		if mon.WatchdogSweeps() == 0 {
			t.Fatalf("seed %d: watchdog never swept", seed)
		}
		if n := mon.WatchdogNonInjected(); n != 0 {
			var buf bytes.Buffer
			_ = mon.ExportWatchdogJSONL(&buf)
			t.Fatalf("seed %d: %d non-injected invariant violations:\n%s", seed, n, buf.String())
		}
	}
}

// TestStatusHandler: the post-run introspection endpoint serves the frozen
// snapshot — OpenMetrics on /metrics, the watchdog verdict on /healthz, the
// fleet phase table on /statusz.
func TestStatusHandler(t *testing.T) {
	s, err := New(Config{Tenants: 2, Sessions: 4, Seed: 17, Watchdog: true})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	st := s.Status(rep)
	if !st.Healthy {
		t.Fatalf("clean run reported unhealthy (%d non-injected)", st.NonInjected)
	}
	srv := httptest.NewServer(st.Handler())
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, buf.String()
	}

	if code, body := get("/metrics"); code != http.StatusOK ||
		!strings.Contains(body, "erebor_tenant_phase_cycles_total") ||
		!strings.HasSuffix(body, "# EOF\n") {
		t.Fatalf("/metrics: code=%d body[:80]=%q", code, body[:min(80, len(body))])
	}
	if code, body := get("/healthz"); code != http.StatusOK || !strings.HasPrefix(body, "ok") {
		t.Fatalf("/healthz: code=%d body=%q", code, body)
	}
	if code, body := get("/statusz"); code != http.StatusOK ||
		!strings.Contains(body, "watchdog: healthy") || !strings.Contains(body, "TOTAL") {
		t.Fatalf("/statusz: code=%d body=%q", code, body)
	}

	// An unhealthy snapshot flips /healthz to 503.
	st.Healthy, st.NonInjected = false, 2
	if code, body := get("/healthz"); code != http.StatusServiceUnavailable ||
		!strings.Contains(body, "unhealthy") {
		t.Fatalf("/healthz unhealthy: code=%d body=%q", code, body)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
