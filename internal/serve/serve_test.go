package serve

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"github.com/asterisc-release/erebor-go/internal/faultinject"
	"github.com/asterisc-release/erebor-go/internal/secchan"
	"github.com/asterisc-release/erebor-go/internal/trace"
)

// TestServeFaultFree: a small warm fleet serves every tenant, and slot
// turnover goes through the recycle path rather than cold relaunch.
func TestServeFaultFree(t *testing.T) {
	rep, err := Run(Config{Tenants: 4, Sessions: 12, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != 12 || rep.Failed != 0 {
		t.Fatalf("completed=%d failed=%d, want 12/0", rep.Completed, rep.Failed)
	}
	// Each of the 4 slots serves 3 tenants: 2 turnovers each recycle warm.
	if rep.Recycles != 8 {
		t.Fatalf("recycles=%d, want 8", rep.Recycles)
	}
	if rep.WarmSessions != 8 || rep.ColdSessions != 4 {
		t.Fatalf("warm=%d cold=%d, want 8/4", rep.WarmSessions, rep.ColdSessions)
	}
	if rep.Relaunches != 0 {
		t.Fatalf("relaunches=%d on the warm path", rep.Relaunches)
	}
	for _, r := range rep.Results {
		if r.Err != "" {
			t.Fatalf("tenant %d failed: %s", r.Tenant, r.Err)
		}
		if r.ReplyBytes == 0 {
			t.Fatalf("tenant %d got an empty reply", r.Tenant)
		}
	}
}

// TestServeDeterminism: two full serving runs from the same seed produce
// byte-identical reports and byte-identical trace exports (Chrome +
// Prometheus), which is what makes the serving benchmark reproducible.
func TestServeDeterminism(t *testing.T) {
	cfg := Config{Tenants: 16, Sessions: 48, Seed: 11, Trace: true}
	if !testing.Short() {
		cfg.Tenants, cfg.Sessions = 64, 128
	}

	type capture struct {
		report []byte
		chrome []byte
		prom   []byte
	}
	one := func() capture {
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		if rep.Completed != cfg.Sessions {
			t.Fatalf("completed=%d failed=%d, want %d/0", rep.Completed, rep.Failed, cfg.Sessions)
		}
		var chrome, prom bytes.Buffer
		if err := s.World().Rec.ExportChromeTrace(&chrome); err != nil {
			t.Fatal(err)
		}
		if err := s.World().Rec.ExportPrometheus(&prom); err != nil {
			t.Fatal(err)
		}
		return capture{report: rep.JSON(), chrome: chrome.Bytes(), prom: prom.Bytes()}
	}

	a, b := one(), one()
	if !bytes.Equal(a.report, b.report) {
		t.Error("report JSON differs between identically-seeded runs")
	}
	if !bytes.Equal(a.chrome, b.chrome) {
		t.Error("Chrome trace export differs between identically-seeded runs")
	}
	if !bytes.Equal(a.prom, b.prom) {
		t.Error("Prometheus export differs between identically-seeded runs")
	}
}

// TestServeSMPDeterminism: with the fleet spread across 2 vCPUs the run
// stays byte-deterministic — same (seed, VCPUs), same report JSON and same
// trace export bytes — and every session still completes. This is the SMP
// half of the determinism contract: the round-robin core interleave and
// slot→core assignment are functions of the virtual clock and slot index
// only, never of host scheduling.
func TestServeSMPDeterminism(t *testing.T) {
	for _, vcpus := range []int{2, 4} {
		cfg := Config{Tenants: 16, Sessions: 48, Seed: 11, VCPUs: vcpus, Trace: true}

		type capture struct {
			report []byte
			chrome []byte
		}
		one := func() capture {
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := s.Run()
			if err != nil {
				t.Fatal(err)
			}
			if rep.Completed != cfg.Sessions || rep.Failed != 0 {
				t.Fatalf("vcpus=%d: completed=%d failed=%d, want %d/0",
					vcpus, rep.Completed, rep.Failed, cfg.Sessions)
			}
			var chrome bytes.Buffer
			if err := s.World().Rec.ExportChromeTrace(&chrome); err != nil {
				t.Fatal(err)
			}
			return capture{report: rep.JSON(), chrome: chrome.Bytes()}
		}

		a, b := one(), one()
		if !bytes.Equal(a.report, b.report) {
			t.Errorf("vcpus=%d: report JSON differs between identically-seeded runs", vcpus)
		}
		if !bytes.Equal(a.chrome, b.chrome) {
			t.Errorf("vcpus=%d: Chrome trace export differs between identically-seeded runs", vcpus)
		}
	}
}

// TestServeSMPSpeedup: spreading the 64-tenant warm fleet across more
// vCPUs must lower the overlap-adjusted cycles/session monotonically from
// P=1 to P=4 (the acceptance criterion for the vCPU sweep).
func TestServeSMPSpeedup(t *testing.T) {
	tenants, sessions := 16, 32
	if !testing.Short() {
		tenants, sessions = 64, 128
	}
	memMB := uint64(256 + tenants*4)
	var per []uint64
	for _, p := range []int{1, 2, 4} {
		rep, err := Run(Config{Tenants: tenants, Sessions: sessions, Seed: 1, MemMB: memMB, VCPUs: p})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Completed != sessions {
			t.Fatalf("vcpus=%d: completed=%d, want %d", p, rep.Completed, sessions)
		}
		per = append(per, rep.CyclesPerSession)
	}
	if !(per[2] < per[1] && per[1] < per[0]) {
		t.Fatalf("cycles/session not monotonically decreasing over P∈{1,2,4}: %v", per)
	}
}

// TestServeChaosFleetSMP runs the chaos fleet on 2 vCPUs (the CI SMP
// chaos gate): fault-injected sessions spread across cores must still all
// complete or fail typed, with no hangs and a clean monitor audit.
func TestServeChaosFleetSMP(t *testing.T) {
	seeds := 10
	tenants, sessions := 64, 96
	if testing.Short() {
		seeds, tenants, sessions = 3, 16, 24
	}
	for seed := 1; seed <= seeds; seed++ {
		plan := faultinject.Uniform(int64(seed), 0.05)
		s, err := New(Config{
			Tenants: tenants, Sessions: sessions, Seed: int64(seed), VCPUs: 2, Chaos: &plan,
		})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := s.Run()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if rep.Completed+rep.Failed != sessions {
			t.Fatalf("seed %d: %d completed + %d failed != %d sessions",
				seed, rep.Completed, rep.Failed, sessions)
		}
		for _, r := range rep.Results {
			if r.Err != "" && !typedErr(r.Err) {
				t.Fatalf("seed %d: tenant %d failed untyped: %s", seed, r.Tenant, r.Err)
			}
		}
		if got := s.inj.Snapshot().Total(); got == 0 {
			t.Fatalf("seed %d: chaos run injected no faults", seed)
		}
		if v := s.World().Mon.Audit(); len(v) != 0 {
			t.Fatalf("seed %d: monitor audit violations: %v", seed, v)
		}
	}
}

// TestServe256Tenants: the acceptance-scale run — 256 concurrent tenants,
// every session served, deterministically.
func TestServe256Tenants(t *testing.T) {
	if testing.Short() {
		t.Skip("256-tenant run skipped in -short mode")
	}
	cfg := Config{Tenants: 256, Sessions: 256, Seed: 5, MemMB: 1024}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Completed != 256 || a.Failed != 0 {
		t.Fatalf("completed=%d failed=%d, want 256/0", a.Completed, a.Failed)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.JSON(), b.JSON()) {
		t.Fatal("256-tenant report JSON differs between identically-seeded runs")
	}
}

// TestServeWarmBeatsCold: recycling a sandbox carcass (address space,
// installed PTEs, pinned confined frames survive; contents are scrubbed)
// must be cheaper per session than cold-building every sandbox.
func TestServeWarmBeatsCold(t *testing.T) {
	warm, err := Run(Config{Tenants: 4, Sessions: 16, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := Run(Config{Tenants: 4, Sessions: 16, Seed: 3, Cold: true})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Completed != 16 || cold.Completed != 16 {
		t.Fatalf("completed warm=%d cold=%d, want 16/16", warm.Completed, cold.Completed)
	}
	if warm.Recycles == 0 {
		t.Fatal("warm run performed no recycles")
	}
	if cold.Recycles != 0 || cold.Relaunches == 0 {
		t.Fatalf("cold run: recycles=%d relaunches=%d, want 0/>0", cold.Recycles, cold.Relaunches)
	}
	if warm.CyclesPerSession >= cold.CyclesPerSession {
		t.Fatalf("warm recycle (%d cycles/session) not cheaper than cold creation (%d)",
			warm.CyclesPerSession, cold.CyclesPerSession)
	}
}

// TestServeSessionsInterleave: tenant sessions genuinely overlap on the
// virtual clock — the server round-robins sandbox scheduling slices instead
// of serving tenants to completion one after another.
func TestServeSessionsInterleave(t *testing.T) {
	s, err := New(Config{Tenants: 8, Sessions: 8, Seed: 9, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != 8 {
		t.Fatalf("completed=%d, want 8", rep.Completed)
	}
	type span struct {
		label      string
		start, end uint64
	}
	var spans []span
	for _, ev := range s.World().Rec.Snapshot() {
		if ev.Kind == trace.KindServeSession {
			spans = append(spans, span{ev.Label, ev.TS, ev.TS + ev.Dur})
		}
	}
	if len(spans) != 8 {
		t.Fatalf("found %d serve-session spans, want 8", len(spans))
	}
	overlaps := 0
	for i := 0; i < len(spans); i++ {
		for j := i + 1; j < len(spans); j++ {
			if spans[i].label == spans[j].label {
				continue
			}
			if spans[i].start < spans[j].end && spans[j].start < spans[i].end {
				overlaps++
			}
		}
	}
	// With 8 concurrent slots every pair should overlap; demand most do.
	if overlaps < 20 {
		t.Fatalf("only %d overlapping tenant-span pairs; sessions are serialized", overlaps)
	}
}

// TestServeFailedSessionRelaunchesCold: a failed session must never hand
// its slot's worker to the next tenant warm. The worker coroutine's local
// state (request/reply buffers, loop position) survives EMCRecycleSandbox,
// so a mid-request abort followed by a warm reissue would let the next
// tenant's stepping resume the old computation and receive the previous
// tenant's reply bytes. The slot must kill and relaunch instead, and the
// following tenant must still be served correctly.
func TestServeFailedSessionRelaunchesCold(t *testing.T) {
	s, err := New(Config{Tenants: 1, Sessions: 2, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	sl := s.slots[0]
	// Drive tenant 0 up to the reply wait, so its request is genuinely in
	// flight toward the worker, then abort the session the way a receive
	// timeout does.
	mux := &secchan.MuxProxy{}
	for i := 0; sl.state != stWait; i++ {
		if i > 1000 {
			t.Fatal("session never reached the reply wait")
		}
		mux.Reset()
		mux.Add(sl.sess.Proxy)
		mux.PumpAll(8)
		s.tick(sl)
		if sl.tenant != 0 {
			t.Fatal("tenant 0 finished before the abort could be injected")
		}
	}
	s.fail(sl, fmt.Errorf("serve: injected mid-request abort: %w", secchan.ErrTimeout))

	if sl.warm {
		t.Fatal("slot reissued warm after a failed session")
	}
	if got := s.w.Mon.Stats.SandboxRecycles; got != 0 {
		t.Fatalf("failed session recycled its sandbox %d time(s)", got)
	}
	if s.relaunches != 1 {
		t.Fatalf("relaunches = %d, want 1 (cold rebuild after failure)", s.relaunches)
	}

	// Tenant 1 now runs on the relaunched worker; finish() validates its
	// reply byte-for-byte against tenant 1's own request, so completion
	// here proves no cross-tenant bytes surfaced.
	for i := 0; !sl.done; i++ {
		if i > 100000 {
			t.Fatal("tenant 1 never completed on the relaunched slot")
		}
		mux.Reset()
		mux.Add(sl.sess.Proxy)
		mux.PumpAll(8)
		s.tick(sl)
	}
	if s.completed != 1 || s.failed != 1 {
		t.Fatalf("completed=%d failed=%d, want 1/1", s.completed, s.failed)
	}
	for _, r := range s.results {
		if r.Tenant == 1 && r.Err != "" {
			t.Fatalf("tenant 1 failed on the relaunched slot: %s", r.Err)
		}
	}
}

// TestServeChaosFleet is the chaos suite: many seeds, a full fleet, faults
// of every class on the untrusted hop. Every session must either complete
// or fail with a typed error, and the server must terminate — no hangs.
func TestServeChaosFleet(t *testing.T) {
	seeds := 20
	tenants, sessions := 64, 96
	if testing.Short() {
		seeds, tenants, sessions = 5, 16, 24
	}
	for seed := 1; seed <= seeds; seed++ {
		plan := faultinject.Uniform(int64(seed), 0.05)
		s, err := New(Config{
			Tenants: tenants, Sessions: sessions, Seed: int64(seed), Chaos: &plan,
		})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := s.Run()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if rep.Completed+rep.Failed != sessions {
			t.Fatalf("seed %d: %d completed + %d failed != %d sessions",
				seed, rep.Completed, rep.Failed, sessions)
		}
		if len(rep.Results) != sessions {
			t.Fatalf("seed %d: %d results, want %d", seed, len(rep.Results), sessions)
		}
		seen := make(map[int]bool, sessions)
		for _, r := range rep.Results {
			if seen[r.Tenant] {
				t.Fatalf("seed %d: tenant %d reported twice", seed, r.Tenant)
			}
			seen[r.Tenant] = true
			if r.Err == "" && r.ReplyBytes == 0 {
				t.Fatalf("seed %d: tenant %d neither failed nor replied", seed, r.Tenant)
			}
			if r.Err != "" && !typedErr(r.Err) {
				t.Fatalf("seed %d: tenant %d failed untyped: %s", seed, r.Tenant, r.Err)
			}
		}
		if got := s.inj.Counters.Total(); got == 0 {
			t.Fatalf("seed %d: chaos run injected no faults", seed)
		}
	}
}

// typedErr recognizes the typed failure vocabulary of the serving path.
func typedErr(msg string) bool {
	for _, want := range []string{
		"timeout", "worker terminated", "worker died", "secchan:",
		"serve:", "harness:",
	} {
		if strings.Contains(msg, want) {
			return true
		}
	}
	return false
}

// TestServeChaosDrainsCleanly: after a chaos run the fleet is torn down —
// no live sandbox retains confined memory, so no tenant's bytes can outlive
// its session (zero-on-recycle plus scrub-on-end).
func TestServeChaosDrainsCleanly(t *testing.T) {
	plan := faultinject.Uniform(42, 0.08)
	s, err := New(Config{Tenants: 8, Sessions: 24, Seed: 42, Chaos: &plan})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed+rep.Failed != 24 {
		t.Fatalf("%d+%d sessions accounted, want 24", rep.Completed, rep.Failed)
	}
	for _, sl := range s.slots {
		info, ok := sl.c.Info()
		if ok && !info.Destroyed {
			t.Fatalf("slot %d sandbox %d still live after drain", sl.idx, sl.c.ID)
		}
		if ok && info.ConfinedPages != 0 && !info.Destroyed {
			t.Fatalf("slot %d retains %d confined pages", sl.idx, info.ConfinedPages)
		}
	}
	if v := s.World().Mon.Audit(); len(v) != 0 {
		t.Fatalf("monitor audit violations after chaos drain: %v", v)
	}
}

// TestCheckReplyMatchesWindowXOR: the in-place reply check accepts exactly
// req[i] ^ win[i % len(win)], names the first wrong byte, and refuses a
// reply of the wrong length, for requests shorter than, equal to and not a
// multiple of the window.
func TestCheckReplyMatchesWindowXOR(t *testing.T) {
	s := &Server{win: []byte{3, 1, 4, 1, 5}, cfg: Config{Seed: 11}}
	for _, n := range []int{0, 1, 4, 5, 13, 64} {
		s.cfg.InputBytes = n
		req := s.requestFor(nil, 7)
		want := make([]byte, n)
		for i := range req {
			want[i] = req[i] ^ s.win[i%len(s.win)]
		}
		if err := s.checkReply(req, want); err != nil {
			t.Fatalf("n=%d: correct reply refused: %v", n, err)
		}
		for i := range want {
			want[i] ^= 0x80
			err := s.checkReply(req, want)
			want[i] ^= 0x80
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("byte %d mismatch", i)) {
				t.Fatalf("n=%d: flipped byte %d: err=%v", n, i, err)
			}
		}
		if err := s.checkReply(req, append(want, 0)); err == nil {
			t.Fatalf("n=%d: over-long reply accepted", n)
		}
	}
}

// TestRequestForReusesBuffer: refilling a slot's request buffer gives the
// same bytes as a fresh one and keeps its storage.
func TestRequestForReusesBuffer(t *testing.T) {
	s := &Server{cfg: Config{Seed: 5, InputBytes: 32}}
	buf := s.requestFor(nil, 1)
	fresh := s.requestFor(nil, 2)
	got := s.requestFor(buf, 2)
	if &got[0] != &buf[0] {
		t.Fatal("requestFor reallocated a buffer that was large enough")
	}
	if !bytes.Equal(got, fresh) {
		t.Fatal("refilled request differs from a freshly derived one")
	}
}
