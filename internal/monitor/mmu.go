package monitor

import (
	"github.com/asterisc-release/erebor-go/internal/costs"
	"github.com/asterisc-release/erebor-go/internal/cpu"
	"github.com/asterisc-release/erebor-go/internal/mem"
	"github.com/asterisc-release/erebor-go/internal/paging"
	"github.com/asterisc-release/erebor-go/internal/tdx"
)

// MapFlags selects user-mapping permissions.
type MapFlags struct {
	Writable bool
	Exec     bool
}

// MapReq is one entry of a batched mapping request.
type MapReq struct {
	VA    paging.Addr
	Frame mem.Frame
	Flags MapFlags
}

// MMUOp selects the operation of one MMU transaction request.
type MMUOp uint8

// MMU operations: the four leaf-mutating EMCs, which the kernel may also
// batch through a submission ring.
const (
	OpMap MMUOp = iota
	OpUnmap
	OpProtect
	OpReclaim
)

// String names the operation (metrics label values).
func (op MMUOp) String() string {
	switch op {
	case OpMap:
		return "map"
	case OpUnmap:
		return "unmap"
	case OpProtect:
		return "protect"
	case OpReclaim:
		return "reclaim"
	}
	return "unknown"
}

// RingReq is one request of an MMU transaction (and one entry of the
// submission ring). Frame is used by OpMap only; Flags by OpMap and
// OpProtect.
type RingReq struct {
	Op    MMUOp
	VA    paging.Addr
	Frame mem.Frame
	Flags MapFlags
}

// EMCCreateAS creates a user address space whose kernel half aliases the
// shared kernel tables (direct map, kernel text, monitor region). The root
// is registered so CR3 writes can be validated.
func (mon *Monitor) EMCCreateAS(c *cpu.Core, owner mem.Owner) (ASID, error) {
	var id ASID
	err := mon.gate(c, "mmu", func() error {
		t, err := paging.New(mon.M.Phys, mon.allocPTP)
		if err != nil {
			return err
		}
		// Share the kernel half: copy PML4 slots 256-511 from the kernel
		// tables so kernel mappings (and future direct-map updates through
		// shared lower-level PTPs) are visible in every address space.
		for i := 256; i < 512; i++ {
			a := mem.Addr(mon.kernelTables.Root.Base()) + mem.Addr(i*8)
			e, err := paging.ReadPTE(mon.M.Phys, a)
			if err != nil {
				return err
			}
			if e.Is(paging.Present) {
				dst := mem.Addr(t.Root.Base()) + mem.Addr(i*8)
				if err := paging.WritePTE(mon.M.Phys, dst, e); err != nil {
					return err
				}
			}
		}
		// One PTE-write body for the kernel-half copy; it writes no user
		// leaf, so PTEWrites does not count it.
		mon.chargePTEWrite(1)
		mon.nextASID++
		id = mon.nextASID
		as := &asState{id: id, owner: owner, tables: t, userFrames: make(map[paging.Addr]mem.Frame)}
		mon.addrSpaces[id] = as
		mon.rootIndex[t.Root] = id
		return nil
	})
	return id, err
}

// EMCDestroyAS tears down a user address space: unmaps user leaves and
// unregisters the root. Frames are returned to the kernel's bookkeeping
// (the kernel owns reclamation of non-confined frames).
func (mon *Monitor) EMCDestroyAS(c *cpu.Core, asid ASID) error {
	return mon.gate(c, "mmu", func() error {
		as, ok := mon.addrSpaces[asid]
		if !ok {
			return denied("destroy-as", "unknown address space %d", asid)
		}
		if sb := mon.sandboxByAS(asid); sb != nil && !sb.destroyed {
			return denied("destroy-as", "address space %d hosts live sandbox %d", asid, sb.id)
		}
		for va := range as.userFrames {
			if err := as.tables.Unmap(va); err != nil {
				return err
			}
		}
		mon.pteWrite(uint64(len(as.userFrames)))
		// Every translation of this address space is now stale on every
		// core; flush them before the root (or any frame) can be reissued.
		mon.M.ShootdownRoot(c, as.tables.Root)
		delete(mon.rootIndex, as.tables.Root)
		delete(mon.addrSpaces, asid)
		// Phase boundary: the root and user frames are reclaimable from here
		// on; no stale mapping census may still reference them.
		mon.wdPhaseSweep(TriggerDestroyAS)
		return nil
	})
}

// EMCSwitchAS writes CR3 to a registered root (context switch).
func (mon *Monitor) EMCSwitchAS(c *cpu.Core, asid ASID) error {
	return mon.gate(c, "cr", func() error {
		mon.M.Clock.Charge(costs.EreborCRWriteBody - costs.NativeCRWrite)
		as, ok := mon.addrSpaces[asid]
		if !ok && asid != 0 {
			return denied("switch-as", "unknown address space %d", asid)
		}
		root := mon.kernelTables.Root
		if asid != 0 {
			root = as.tables.Root
		}
		if t := c.WriteCR(cpu.CR3, uint64(root.Base())); t != nil {
			return t
		}
		return nil
	})
}

// userFramePolicy validates mapping frame f into address space as.
func (mon *Monitor) userFramePolicy(op string, as *asState, f mem.Frame, flags *MapFlags) error {
	meta, err := mon.M.Phys.Meta(f)
	if err != nil {
		return err
	}
	if !meta.Allocated {
		return denied(op, "frame %d not allocated", f)
	}
	if mon.ptps[f] {
		return denied(op, "frame %d is a page-table page", f)
	}
	if mon.monitorFrames[f] || meta.Region == RegionMonitor {
		return denied(op, "frame %d belongs to the monitor", f)
	}
	if mon.kernelText[f] {
		return denied(op, "frame %d holds kernel text", f)
	}
	if owner, confined := mon.confinedOwner[f]; confined {
		sb := mon.sandboxByAS(as.id)
		if sb == nil || sb.id != owner {
			return denied(op, "frame %d is confined to sandbox %d (single-mapping policy)", f, owner)
		}
		return nil
	}
	if tid, shared := mon.templateFrames[f]; shared {
		// CoW template frames are shared read-only across forks; a writable
		// mapping anywhere would let one tenant edit every sibling's image.
		// This denial covers every mapping path — synchronous EMCs, batches
		// and the async submission ring all validate here.
		if flags.Writable {
			return denied(op, "frame %d is a copy-on-write template frame (template %d); writable mapping refused", f, tid)
		}
		sb := mon.sandboxByAS(as.id)
		if sb == nil || sb.template != tid {
			return denied(op, "frame %d belongs to snapshot template %d not forked into this address space", f, tid)
		}
		return nil
	}
	if cr := mon.commonOf(f); cr != nil {
		sb := mon.sandboxByAS(as.id)
		if sb == nil || !sb.commons[cr.name] {
			return denied(op, "frame %d belongs to common region %q not attached to this address space", f, cr.name)
		}
		if cr.sealed && flags.Writable {
			return denied(op, "common region %q is sealed read-only", cr.name)
		}
		return nil
	}
	// Ordinary anonymous frame: must belong to the address space's owner.
	if meta.Owner != as.owner {
		return denied(op, "frame %d owned by %s, address space owned by %s", f, meta.Owner, as.owner)
	}
	return nil
}

func leafFor(f mem.Frame, flags MapFlags) paging.PTE {
	leaf := (paging.Present | paging.User).WithFrame(f)
	if flags.Writable {
		leaf |= paging.Writable
	}
	if !flags.Exec {
		leaf |= paging.NX
	}
	return leaf
}

// EMCMapUser installs one user mapping after policy validation.
func (mon *Monitor) EMCMapUser(c *cpu.Core, asid ASID, va paging.Addr, f mem.Frame, flags MapFlags) error {
	return mon.userOp(c, asid, RingReq{Op: OpMap, VA: va, Frame: f, Flags: flags})
}

// EMCUnmapUser removes a user mapping.
func (mon *Monitor) EMCUnmapUser(c *cpu.Core, asid ASID, va paging.Addr) error {
	return mon.userOp(c, asid, RingReq{Op: OpUnmap, VA: va})
}

// EMCProtectUser rewrites the flags of an existing user mapping (mprotect).
func (mon *Monitor) EMCProtectUser(c *cpu.Core, asid ASID, va paging.Addr, flags MapFlags) error {
	return mon.userOp(c, asid, RingReq{Op: OpProtect, VA: va, Flags: flags})
}

// EMCReclaimUser lets the kernel's memory-pressure reclaimer unmap one
// page of a sandbox address space — permitted only for unpinned common
// region pages (§6.1: common pages are not pinned). Confined pages are
// pinned and refuse reclamation.
func (mon *Monitor) EMCReclaimUser(c *cpu.Core, asid ASID, va paging.Addr) error {
	return mon.userOp(c, asid, RingReq{Op: OpReclaim, VA: va})
}

// userOp runs one single-op EMC as a one-request transaction. Every
// single-op EMC costs one PTE-write body (Table 4's MMU row) whether or not
// the request is applied; a commit charges it, so a refusal pays it here.
func (mon *Monitor) userOp(c *cpu.Core, asid ASID, r RingReq) error {
	return mon.gate(c, "mmu", func() error {
		as, ok := mon.addrSpaces[asid]
		var err error
		if !ok {
			err = denied(userOpName(r.Op), "unknown address space %d", asid)
		} else {
			err = mon.newTxn(c, as, []RingReq{r}, userOpName).run()
		}
		if err != nil {
			mon.pteWrite(1)
		}
		return err
	})
}

// EMCMapUserBatch installs many mappings under a single gate crossing (the
// batched-MMU-update optimization the paper suggests for fork-heavy loads,
// §9.1). The batch is one MMU transaction: all or nothing, with a batch
// refused in validation costing only the gate.
func (mon *Monitor) EMCMapUserBatch(c *cpu.Core, asid ASID, reqs []MapReq) error {
	return mon.gate(c, "mmu", func() error {
		as, ok := mon.addrSpaces[asid]
		if !ok {
			return denied("map-user", "unknown address space %d", asid)
		}
		work := make([]RingReq, len(reqs))
		for i, r := range reqs {
			work[i] = RingReq{Op: OpMap, VA: r.VA, Frame: r.Frame, Flags: r.Flags}
		}
		return mon.newTxn(c, as, work, userOpName).run()
	})
}

// userOpName labels the denials of the single-op and batch EMCs.
func userOpName(op MMUOp) string { return op.String() + "-user" }

// --- The MMU transaction engine -------------------------------------------

// mmuTxn applies a list of kernel-supplied user-mapping requests to one
// address space. It is the only code that applies such requests: the
// single-op EMCs, EMCMapUserBatch and EMCRingDrain all run one (the
// monitor's own leaf writes — fault installs, CoW, seals, teardown — take
// no request list). A transaction has three steps, and PTEWrites counts
// only table writes that physically happen:
//
//  1. validate checks a working copy of every request against a pending
//     view of the address space, writing and charging nothing;
//  2. commit applies the copy under one undo log; if a table write fails,
//     rollback restores every applied leaf and frame, releases the
//     page-table pages the transaction allocated and shoots down every
//     undone VA, leaving the address space exactly as it was;
//  3. flush invalidates every live leaf the commit changed with one
//     coalesced shootdown (at most one IPI per remote core).
type mmuTxn struct {
	mon  *Monitor
	c    *cpu.Core
	as   *asState
	name func(MMUOp) string // denial label of each request's operation
	work []RingReq

	undo    []mmuUndo
	newPTPs map[mem.Frame]bool
	pairs   []cpu.ShootdownPair // flush set, deduplicated, in commit order
	flushed map[paging.Addr]bool
}

// mmuUndo snapshots one slot before the commit writes it.
type mmuUndo struct {
	va       paging.Addr
	hadLeaf  bool
	prevLeaf paging.PTE
	hadFrame bool
	prevF    mem.Frame
}

// newTxn starts a transaction over a working copy of reqs: flag
// normalization by the policy survives into commit, and the caller's slice
// (e.g. the ring's entries) is never modified.
func (mon *Monitor) newTxn(c *cpu.Core, as *asState, reqs []RingReq, name func(MMUOp) string) *mmuTxn {
	work := make([]RingReq, len(reqs))
	copy(work, reqs)
	return &mmuTxn{mon: mon, c: c, as: as, name: name, work: work}
}

// run executes all three steps.
func (t *mmuTxn) run() error {
	if err := t.validate(); err != nil {
		return err
	}
	if err := t.commit(); err != nil {
		return err
	}
	t.flush()
	return nil
}

// validate checks every request the way it will apply: the pending view
// holds the effect of the transaction's earlier requests, so a protect may
// target a page an earlier map of the same transaction installs.
func (t *mmuTxn) validate() error {
	mon, as := t.mon, t.as
	type pending struct {
		frame  mem.Frame
		mapped bool
	}
	var view map[paging.Addr]pending
	lookup := func(va paging.Addr) (mem.Frame, bool) {
		if p, ok := view[va]; ok {
			return p.frame, p.mapped
		}
		f, ok := as.userFrames[va]
		return f, ok
	}
	pend := func(va paging.Addr, p pending) {
		if view == nil {
			view = make(map[paging.Addr]pending)
		}
		view[va] = p
	}
	for i := range t.work {
		r := &t.work[i]
		va := paging.PageBase(r.VA)
		// Every operation is range-checked: the kernel half (direct map,
		// kernel text, monitor) is shared by all address spaces, and no
		// user-mapping EMC may write it.
		if r.VA >= UserTop || r.VA < UserBase {
			return denied(t.name(r.Op), "va %#x outside user range", r.VA)
		}
		switch r.Op {
		case OpMap:
			if err := mon.userFramePolicy(t.name(r.Op), as, r.Frame, &r.Flags); err != nil {
				return err
			}
			pend(va, pending{frame: r.Frame, mapped: true})
		case OpUnmap:
			pend(va, pending{})
		case OpProtect:
			f, mapped := lookup(va)
			if !mapped {
				return denied(t.name(r.Op), "va %#x not mapped", r.VA)
			}
			if err := mon.userFramePolicy(t.name(r.Op), as, f, &r.Flags); err != nil {
				return err
			}
		case OpReclaim:
			f, mapped := lookup(va)
			if !mapped {
				return denied(t.name(r.Op), "va %#x not mapped", r.VA)
			}
			meta, err := mon.M.Phys.Meta(f)
			if err != nil {
				return err
			}
			if meta.Pinned {
				return denied(t.name(r.Op), "frame %d is pinned (confined memory)", f)
			}
			if mon.commonOf(f) == nil {
				return denied(t.name(r.Op), "frame %d is not common-region memory", f)
			}
			pend(va, pending{})
		default:
			return denied(t.name(r.Op), "unknown op %d", r.Op)
		}
	}
	return nil
}

// commit applies the validated requests in order, one counted PTE write
// each, tracking the page-table pages the tables allocate on its behalf.
func (t *mmuTxn) commit() error {
	tables := t.as.tables
	prevHook := tables.OnPTPAlloc
	tables.OnPTPAlloc = func(f mem.Frame) {
		if t.newPTPs == nil {
			t.newPTPs = make(map[mem.Frame]bool)
		}
		t.newPTPs[f] = true
		if prevHook != nil {
			prevHook(f)
		}
	}
	defer func() { tables.OnPTPAlloc = prevHook }()
	t.undo = make([]mmuUndo, 0, len(t.work))
	for _, r := range t.work {
		u := mmuUndo{va: paging.PageBase(r.VA)}
		if pte, _, fault := tables.Walk(u.va); fault == nil && pte.Is(paging.Present) {
			u.hadLeaf, u.prevLeaf = true, pte
		}
		u.prevF, u.hadFrame = t.as.userFrames[u.va]
		if err := t.apply(r, u); err != nil {
			t.rollback(u.va)
			return err
		}
		t.mon.pteWrite(1)
		t.undo = append(t.undo, u)
	}
	return nil
}

// apply writes one request's leaf and frame accounting and queues the
// invalidation its change needs.
func (t *mmuTxn) apply(r RingReq, u mmuUndo) error {
	tables, va := t.as.tables, u.va
	switch r.Op {
	case OpMap:
		leaf := leafFor(r.Frame, r.Flags)
		if err := tables.Map(r.VA, leaf); err != nil {
			return err
		}
		// Replacing a live leaf invalidates whatever cores cached for this
		// page; a first install (or an identical rewrite) does not.
		if u.hadLeaf && u.prevLeaf != leaf {
			t.invalidate(va)
		}
		t.as.userFrames[va] = r.Frame
	case OpUnmap, OpReclaim:
		if err := tables.Unmap(va); err != nil {
			return err
		}
		// A reclaimed frame may be handed out again immediately, so reclaim
		// flushes even if the walk faulted; a plain unmap flushes only a
		// present leaf.
		if u.hadLeaf || r.Op == OpReclaim {
			t.invalidate(va)
		}
		delete(t.as.userFrames, va)
	case OpProtect:
		f, ok := t.as.userFrames[va]
		if !ok {
			return denied(t.name(r.Op), "va %#x vanished mid-commit", r.VA)
		}
		changed := false
		if err := tables.Update(va, func(e paging.PTE) paging.PTE {
			ne := leafFor(f, r.Flags)
			changed = ne != e
			return ne
		}); err != nil {
			return err
		}
		// Permission-identical rewrites (the common accessed/dirty refresh
		// after a fault install) leave cached translations valid.
		if changed {
			t.invalidate(va)
		}
	}
	return nil
}

// invalidate adds va to the flush set once.
func (t *mmuTxn) invalidate(va paging.Addr) {
	if t.flushed[va] {
		return
	}
	if t.flushed == nil {
		t.flushed = make(map[paging.Addr]bool)
	}
	t.flushed[va] = true
	t.pairs = append(t.pairs, cpu.ShootdownPair{Root: t.as.tables.Root, VA: va})
}

// rollback undoes the applied prefix in reverse order after the request at
// failedVA failed to write.
func (t *mmuTxn) rollback(failedVA paging.Addr) {
	mon, as := t.mon, t.as
	vas := []paging.Addr{failedVA}
	for i := len(t.undo) - 1; i >= 0; i-- {
		u := t.undo[i]
		vas = append(vas, u.va)
		var err error
		if u.hadLeaf {
			err = as.tables.Map(u.va, u.prevLeaf)
		} else {
			err = as.tables.Unmap(u.va)
		}
		if err != nil {
			// A rollback that cannot restore a leaf leaves the address space
			// inconsistent with the monitor's bookkeeping — that must never
			// vanish silently.
			mon.recordViolation("mmu rollback: restore of va %#x failed: %v", u.va, err)
		} else {
			mon.pteWrite(1)
		}
		if u.hadFrame {
			as.userFrames[u.va] = u.prevF
		} else {
			delete(as.userFrames, u.va)
		}
	}
	// With every applied leaf undone (and the failing request never
	// written), any table page this transaction allocated on these paths is
	// empty again: release it so a failed transaction consumes no PTP
	// frames. Pre-existing tables are refused and left in place.
	if len(t.newPTPs) > 0 {
		for _, va := range vas {
			_ = as.tables.Prune(va, func(f mem.Frame) bool {
				if !t.newPTPs[f] {
					return false
				}
				mon.freePTP(f, va)
				mon.pteWrite(1) // the cleared parent entry
				return true
			})
		}
	}
	// Another core may have walked the tables mid-commit and cached the
	// leaves this rollback just rewrote; one shootdown over every undone VA
	// closes that window before the gate returns.
	if undone := vas[1:]; len(undone) > 0 {
		pairs := make([]cpu.ShootdownPair, len(undone))
		for i, va := range undone {
			pairs[i] = cpu.ShootdownPair{Root: as.tables.Root, VA: va}
		}
		mon.M.ShootdownBatch(t.c, pairs)
	}
}

// flush issues the commit's invalidation set as one coalesced shootdown
// and returns the IPIs it sent. An empty set issues nothing: ShootdownBatch
// requires a ring-0 initiator even with nothing to flush, and Table 4's MMU
// row enters the gate from a ring-3 task context.
func (t *mmuTxn) flush() int {
	if len(t.pairs) == 0 {
		return 0
	}
	sent := t.mon.M.ShootdownBatch(t.c, t.pairs)
	if remotes := len(t.mon.M.Cores) - 1; sent > remotes {
		t.mon.recordViolation("mmu transaction sent %d shootdown IPIs for one flush (max %d)",
			sent, remotes)
	}
	return sent
}

// pteWrite counts n PTE writes in Stats.PTEWrites and charges their bodies.
func (mon *Monitor) pteWrite(n uint64) {
	mon.Stats.PTEWrites += n
	mon.chargePTEWrite(n)
}

// chargePTEWrite charges n PTE-write bodies (policy validation plus the
// table write) under the monitor/pte-write profiler frame. It is the only
// place that cost is charged.
func (mon *Monitor) chargePTEWrite(n uint64) {
	mon.M.ProfEnter("monitor/pte-write")
	mon.M.Clock.Charge(n * costs.EreborPTEWriteBody)
	mon.M.ProfExit()
}

// TranslateUser walks an address space (monitor-internal and harness use).
func (mon *Monitor) TranslateUser(asid ASID, va paging.Addr) (mem.Frame, bool) {
	as, ok := mon.addrSpaces[asid]
	if !ok {
		return 0, false
	}
	pte, _, f := as.tables.Walk(va)
	if f != nil || !pte.Is(paging.Present) {
		return 0, false
	}
	return pte.Frame(), true
}

// ASRoot returns the root frame of an address space (0 = kernel tables).
func (mon *Monitor) ASRoot(asid ASID) (mem.Frame, bool) {
	if asid == 0 {
		return mon.kernelTables.Root, true
	}
	as, ok := mon.addrSpaces[asid]
	if !ok {
		return 0, false
	}
	return as.tables.Root, true
}

// --- GHCI control (§5.2, §6.1) -----------------------------------------------

// EMCMapGPA converts a frame between CVM-private and CVM-shared. Policy:
// only frames in the reserved shared-io region may ever become shared, so
// kernel, monitor, PTP, confined and common memory stay private (device
// access prevention).
func (mon *Monitor) EMCMapGPA(c *cpu.Core, f mem.Frame, toShared bool) error {
	return mon.gate(c, "ghci", func() error {
		mon.M.Clock.Charge(costs.EreborGHCIBody - costs.NativeTDReport)
		meta, err := mon.M.Phys.Meta(f)
		if err != nil {
			return err
		}
		if toShared && meta.Region != RegionSharedIO {
			return denied("map-gpa", "frame %d outside the shared-io region may not be shared", f)
		}
		_, t := c.TDCall(tdx.LeafMapGPA, []uint64{uint64(f), boolTo64(toShared)})
		if t != nil {
			return t
		}
		return nil
	})
}

// EMCVMCall performs a synchronous exit to the host for the kernel (proxy
// networking, cpuid, MMIO). The payload, if any, must already live in
// shared frames; the TDX module re-verifies.
func (mon *Monitor) EMCVMCall(c *cpu.Core, sub uint64, args []uint64, payloadFrames []mem.Frame, payload []byte) ([]uint64, error) {
	var ret []uint64
	err := mon.gate(c, "ghci", func() error {
		mon.M.Clock.Charge(costs.EreborGHCIBody - costs.NativeTDReport)
		if len(payload) > 0 {
			if err := mon.TDX.StageSharedBuffer(payloadFrames, payload); err != nil {
				return err
			}
		}
		r, t := c.TDCall(tdx.LeafVMCall, append([]uint64{sub}, args...))
		if t != nil {
			return t
		}
		ret = r
		return nil
	})
	return ret, err
}

func boolTo64(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// commonOf returns the common region containing f, if any.
func (mon *Monitor) commonOf(f mem.Frame) *commonRegion {
	for _, cr := range mon.commons {
		if _, ok := cr.frameSet[f]; ok {
			return cr
		}
	}
	return nil
}
