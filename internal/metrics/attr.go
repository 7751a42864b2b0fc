package metrics

import "strconv"

// Well-known registry families. Exporters append `_total` to counters, so
// e.g. FamilyEMC surfaces as `erebor_emc_total` in OpenMetrics output.
const (
	// FamilyEMC counts EMC gate entries, labeled {kind}.
	FamilyEMC = "erebor_emc"
	// FamilyEMCCycles attributes gate-to-gate virtual cycles, labeled {kind}.
	FamilyEMCCycles = "erebor_emc_cycles"
	// FamilyTenantEMCCycles splits EMC gate cycles by the tenant whose
	// session was being served, labeled {tenant, kind}. Only written while
	// an attribution context names a tenant.
	FamilyTenantEMCCycles = "erebor_tenant_emc_cycles"
	// FamilyTenantPhaseCycles is the serving path's causal breakdown:
	// virtual cycles per tenant per session phase, labeled {tenant, phase}.
	FamilyTenantPhaseCycles = "erebor_tenant_phase_cycles"
	// FamilyTenantDispatchCycles attributes kernel scheduler slices,
	// labeled {tenant}.
	FamilyTenantDispatchCycles = "erebor_tenant_dispatch_cycles"
	// FamilyWatchdogSweeps counts invariant sweeps, labeled {trigger}.
	FamilyWatchdogSweeps = "erebor_watchdog_sweeps"
	// FamilyWatchdogViolations counts violations found by sweeps, labeled
	// {code, severity}.
	FamilyWatchdogViolations = "erebor_watchdog_violations"
	// FamilyRuntimeViolations counts kernel misbehavior contained at the
	// interpose boundary (no labels).
	FamilyRuntimeViolations = "erebor_runtime_violations"
	// FamilySessions counts completed serve sessions, labeled
	// {tenant, outcome}.
	FamilySessions = "erebor_sessions"
	// FamilySessionCycles is the per-session latency histogram in virtual
	// cycles, labeled {tenant}.
	FamilySessionCycles = "erebor_session_cycles"
	// FamilyShootdownCycles attributes TLB-shootdown overhead, labeled
	// {tenant} ("-1" for unattributed).
	FamilyShootdownCycles = "erebor_shootdown_cycles"
	// FamilyChannelFrames counts secure-channel frame events, labeled
	// {dir, tenant}: dir is send/recv/retransmit/drop, tenant is the session
	// attribution at frame time ("-1" outside serving).
	FamilyChannelFrames = "erebor_channel_frames"
	// FamilyEgressDecisions counts egress policy decisions at the proxy
	// edge, labeled {tenant, rule, verdict}.
	FamilyEgressDecisions = "erebor_egress_decisions"
	// FamilyProxyFrames counts per-frame proxy relay outcomes, labeled
	// {dir, outcome}: dir is ingress/egress, outcome is
	// forwarded/dropped/denied.
	FamilyProxyFrames = "erebor_proxy_frames"
	// FamilyPhaseLatency is the per-session phase-latency histogram in
	// virtual cycles, labeled {phase}: each completed session observes its
	// total cycles spent per phase, with the session's root span ID as the
	// bucket exemplar. The SLO engine evaluates per-phase objectives
	// against it.
	FamilyPhaseLatency = "erebor_phase_latency_cycles"
	// FamilyTTFC is the time-to-first-compute histogram in virtual cycles
	// (no labels): admission to the first compute-phase step, exemplared by
	// the session's root span ID. ROADMAP item 3's p99 SLO reads it.
	FamilyTTFC = "erebor_ttfc_cycles"
	// FamilyEMCRingDepth is the histogram of submission-ring depths observed
	// at drain time (entries consumed per gate crossing).
	FamilyEMCRingDepth = "erebor_emc_ring_depth"
	// FamilyEMCRingDrains counts submission-ring drains, labeled {outcome}:
	// committed, or rejected when validation refused the batch.
	FamilyEMCRingDrains = "erebor_emc_ring_drains"
	// FamilyEMCRingOps counts ring entries committed by drains, labeled
	// {op} (map/unmap/protect/reclaim).
	FamilyEMCRingOps = "erebor_emc_ring_ops"
	// FamilyRingCoalescedIPIs counts shootdown IPIs issued by drain-time
	// coalesced invalidation sets (at most one per remote core per drain),
	// and the IPIs the coalescing skipped, labeled {result: sent|skipped}.
	FamilyRingCoalescedIPIs = "erebor_ring_coalesced_ipis"
	// FamilySnapshots counts sandboxes frozen into immutable fork templates
	// (no labels).
	FamilySnapshots = "erebor_sandbox_snapshots"
	// FamilyForks counts sandboxes instantiated copy-on-write from a
	// snapshot template, labeled {template}.
	FamilyForks = "erebor_sandbox_forks"
	// FamilyCowBreaks counts first-write page copies on forked sandboxes
	// (copy + re-key restoring the single-mapping invariant), labeled
	// {template}.
	FamilyCowBreaks = "erebor_cow_breaks"
	// FamilyHighWater is the high-watermark gauge for bounded resources,
	// labeled {resource}: the maximum occupancy ever observed (written via
	// Registry.SetMax). Resources: emc-ring-depth, proxy-queue, nic-queue,
	// trace-ring.
	FamilyHighWater = "erebor_highwater"
)

// FamilyHighWater resource label values.
const (
	ResourceEMCRingDepth = "emc-ring-depth"
	ResourceProxyQueue   = "proxy-queue"
	ResourceNICQueue     = "nic-queue"
	ResourceTraceRing    = "trace-ring"
)

// Session phases used in FamilyTenantPhaseCycles labels. The serving loop
// attributes every cycle of Server.Run to exactly one (tenant, phase) pair;
// PhaseFleet covers shared work (mux pumping, admission) that belongs to no
// single tenant.
const (
	PhaseHandshake = "handshake"
	PhaseInstall   = "install"
	PhaseCompute   = "compute"
	PhaseOutput    = "output"
	PhaseRecycle   = "recycle"
	PhaseLaunch    = "launch"
	PhaseFleet     = "fleet"
)

// NoTenant is the tenant the cursor names outside any tenant's session.
const NoTenant = -1

// PhaseKey is one (tenant, phase) attribution bucket: the pair
// FamilyTenantPhaseCycles is labeled with.
type PhaseKey struct {
	Tenant int
	Phase  string
}

// cursor is the registry's attribution context: the (tenant, phase) every
// layer reads at record time, plus the clock and shootdown readings its
// next move flushes against. The simulation goroutine alone moves and
// reads it, so it sits outside Registry.mu: the per-charge profiler read
// takes no lock.
type cursor struct {
	at   PhaseKey
	last uint64 // clock at the last move
	sd   uint64 // Machine.ShootdownCycles at the last move
}

// MoveCursor moves the attribution cursor to (tenant, phase) at cycle now,
// with the machine's shootdown total at sd. Unless the cursor was parked,
// the move flushes to the pair being left: the cycles elapsed since the
// last move to FamilyTenantPhaseCycles, and the shootdown cycles since then
// to FamilyShootdownCycles. It returns the flushed cycle delta. Phase ""
// parks the cursor: nothing accumulates until the next move. Reading the
// clock charges nothing, so attribution is cycle-neutral, and every cycle
// between the opening move and the park lands in exactly one pair.
func (r *Registry) MoveCursor(tenant int, phase string, now, sd uint64) uint64 {
	if r == nil {
		return 0
	}
	c := &r.cur
	var delta uint64
	if c.at.Phase != "" {
		delta = now - c.last
		tl := TenantLabelOf(c.at.Tenant)
		r.Add(FamilyTenantPhaseCycles, delta, KV("phase", c.at.Phase), KV("tenant", tl))
		if sd > c.sd {
			r.Add(FamilyShootdownCycles, sd-c.sd, KV("tenant", tl))
		}
	}
	*c = cursor{at: PhaseKey{Tenant: tenant, Phase: phase}, last: now, sd: sd}
	return delta
}

// Tenant returns the tenant the cursor names (NoTenant when none, or on a
// nil registry).
func (r *Registry) Tenant() int {
	if r == nil {
		return NoTenant
	}
	return r.cur.at.Tenant
}

// Phase returns the phase the cursor names ("" when parked, or on a nil
// registry).
func (r *Registry) Phase() string {
	if r == nil {
		return ""
	}
	return r.cur.at.Phase
}

// TenantLabelOf renders any tenant index as a label value.
func TenantLabelOf(tenant int) string { return strconv.Itoa(tenant) }

// Attribution reads the cursor's flushed totals back: cycles per
// (tenant, phase) and shootdown cycles per tenant. It is the one reader of
// FamilyTenantPhaseCycles and FamilyShootdownCycles, whose only writer is
// MoveCursor, so every series carries exactly the labels MoveCursor wrote
// (sorted by key: phase, tenant).
func (r *Registry) Attribution() (cycles map[PhaseKey]uint64, shootdown map[int]uint64) {
	cycles, shootdown = make(map[PhaseKey]uint64), make(map[int]uint64)
	for _, sv := range r.Series(FamilyTenantPhaseCycles) {
		cycles[PhaseKey{Tenant: parseTenant(sv.Labels[1].Value), Phase: sv.Labels[0].Value}] += sv.Value
	}
	for _, sv := range r.Series(FamilyShootdownCycles) {
		shootdown[parseTenant(sv.Labels[0].Value)] += sv.Value
	}
	return cycles, shootdown
}

// parseTenant reads back a tenant label TenantLabelOf rendered; one that
// does not parse is a wiring bug.
func parseTenant(v string) int {
	t, err := strconv.Atoi(v)
	if err != nil {
		panic("metrics: malformed tenant label " + strconv.Quote(v))
	}
	return t
}
