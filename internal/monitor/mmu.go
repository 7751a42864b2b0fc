package monitor

import (
	"cmp"
	"slices"

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
		// Clear in VA order, so the first error is stable.
		t := mmuTxn{mon: mon, c: c, as: as, writes: clears(sortedKeys(as.userFrames))}
		if err := t.commit(); err != nil {
			return err
		}
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
			err = mon.runReqs(c, as, []RingReq{r}, userOpName)
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
		return mon.runReqs(c, as, work, userOpName)
	})
}

// userOpName labels the denials of the single-op and batch EMCs.
func userOpName(op MMUOp) string { return op.String() + "-user" }

// --- The MMU transaction engine -------------------------------------------

// leafWrite is the engine's unit of work, one resolved user-leaf write: set
// the slot at va to leaf, or clear it when leaf is zero. A reclaim clears
// and always flushes, since the reclaimed frame may be reissued at once.
// commit fills in the rest.
type leafWrite struct {
	va      paging.Addr
	leaf    paging.PTE
	reclaim bool

	stale bool // cores may cache what the write replaced

	// Undo state: the slot before the write.
	hadLeaf, hadFrame bool
	prevLeaf          paging.PTE
	prevF             mem.Frame
}

// mmuTxn applies a list of leaf writes to one address space. It is the only
// code that writes a user leaf or the frame accounting beside it. The
// kernel's requests — single-op EMCs, EMCMapUserBatch and EMCRingDrain —
// become writes in validate; the monitor's own writes (sandbox fault
// installs, CoW breaks, seals, CoW release and teardown) are built from
// state the monitor already trusts and take no request list. A transaction
// has three steps:
//
//  1. validate checks every kernel request against a pending view of the
//     address space and resolves it to a write, writing and charging
//     nothing;
//  2. commit applies the writes, one counted PTE write each, under one undo
//     log; if a table write fails, rollback restores every applied leaf and
//     frame, releases the page-table pages the transaction allocated and
//     shoots down every undone VA, leaving the address space exactly as it
//     was. commitAll, for writes that must never be undone (teardown of a
//     dying sandbox, a seal), instead reports a failed write and carries on;
//  3. flush invalidates every live leaf the commit changed with one
//     coalesced shootdown (at most one IPI per remote core). Sites that
//     drop a whole address space flush its root instead.
type mmuTxn struct {
	mon    *Monitor
	c      *cpu.Core // initiator of the transaction's shootdowns
	as     *asState
	writes []leafWrite
	// prepaid: the caller charged the PTE-write bodies itself (the sandbox
	// fault pays up front, before a CoW break may emit its event).
	prepaid bool
}

// runReqs validates kernel requests and runs them as one transaction.
func (mon *Monitor) runReqs(c *cpu.Core, as *asState, reqs []RingReq, name func(MMUOp) string) error {
	writes, err := mon.validate(as, reqs, name)
	if err != nil {
		return err
	}
	t := mmuTxn{mon: mon, c: c, as: as, writes: writes}
	return t.run()
}

// run commits the writes and flushes the live leaves they changed.
func (t *mmuTxn) run() error {
	if err := t.commit(); err != nil {
		return err
	}
	t.flush()
	return nil
}

// validate checks every request the way it will apply and resolves it to a
// leaf write; name labels each denial. The pending view is the writes
// resolved so far, so a protect may target a page an earlier map of the
// same transaction installs. reqs itself is never modified.
func (mon *Monitor) validate(as *asState, reqs []RingReq, name func(MMUOp) string) ([]leafWrite, error) {
	writes := make([]leafWrite, 0, len(reqs))
	lookup := func(va paging.Addr) (mem.Frame, bool) {
		for i := len(writes) - 1; i >= 0; i-- {
			if writes[i].va == va {
				return writes[i].leaf.Frame(), writes[i].leaf != 0
			}
		}
		f, ok := as.userFrames[va]
		return f, ok
	}
	for _, r := range reqs {
		w := leafWrite{va: paging.PageBase(r.VA)}
		// Every operation is range-checked: the kernel half (direct map,
		// kernel text, monitor) is shared by all address spaces, and no
		// user-mapping EMC may write it.
		if r.VA >= UserTop || r.VA < UserBase {
			return nil, denied(name(r.Op), "va %#x outside user range", r.VA)
		}
		switch r.Op {
		case OpMap:
			if err := mon.userFramePolicy(name(r.Op), as, r.Frame, &r.Flags); err != nil {
				return nil, err
			}
			w.leaf = leafFor(r.Frame, r.Flags)
		case OpUnmap:
		case OpProtect:
			f, mapped := lookup(w.va)
			if !mapped {
				return nil, denied(name(r.Op), "va %#x not mapped", r.VA)
			}
			if err := mon.userFramePolicy(name(r.Op), as, f, &r.Flags); err != nil {
				return nil, err
			}
			w.leaf = leafFor(f, r.Flags)
		case OpReclaim:
			f, mapped := lookup(w.va)
			if !mapped {
				return nil, denied(name(r.Op), "va %#x not mapped", r.VA)
			}
			meta, err := mon.M.Phys.Meta(f)
			if err != nil {
				return nil, err
			}
			if meta.Pinned {
				return nil, denied(name(r.Op), "frame %d is pinned (confined memory)", f)
			}
			if mon.commonOf(f) == nil {
				return nil, denied(name(r.Op), "frame %d is not common-region memory", f)
			}
			w.reclaim = true
		default:
			return nil, denied(name(r.Op), "unknown op %d", r.Op)
		}
		writes = append(writes, w)
	}
	return writes, nil
}

// commit applies the writes in order, rolling every applied one back if a
// table write fails. allocPTP logs the page-table pages the tables allocate
// meanwhile, so rollback can release them.
func (t *mmuTxn) commit() error {
	mon := t.mon
	mon.txnPTPs, mon.inCommit = mon.txnPTPs[:0], true
	defer func() { mon.inCommit = false }()
	for i := range t.writes {
		if err := t.apply(&t.writes[i]); err != nil {
			t.rollback(i)
			return err
		}
	}
	return nil
}

// commitAll applies every write without an undo log: a failed one is
// handed to fail, accounted as written, and the rest carry on.
func (t *mmuTxn) commitAll(fail func(va paging.Addr, err error)) {
	for i := range t.writes {
		w := &t.writes[i]
		if err := t.apply(w); err != nil {
			fail(w.va, err)
			t.settle(w)
		}
	}
}

// apply records the slot's undo state and writes one leaf; on success it
// settles the write.
func (t *mmuTxn) apply(w *leafWrite) error {
	tables := t.as.tables
	if pte, _, fault := tables.Walk(w.va); fault == nil {
		w.hadLeaf, w.prevLeaf = true, pte
	}
	w.prevF, w.hadFrame = t.as.userFrames[w.va]
	var err error
	if w.leaf != 0 {
		err = tables.Map(w.va, w.leaf)
	} else {
		err = tables.Unmap(w.va)
	}
	if err != nil {
		return err
	}
	t.settle(w)
	return nil
}

// settle updates the frame accounting for a written leaf, marks it stale
// if it replaced or cleared a live leaf (a first install or an identical
// rewrite leaves cached translations valid) and counts the PTE write.
func (t *mmuTxn) settle(w *leafWrite) {
	if w.leaf != 0 {
		t.as.userFrames[w.va] = w.leaf.Frame()
	} else {
		delete(t.as.userFrames, w.va)
	}
	w.stale = w.reclaim || (w.hadLeaf && w.prevLeaf != w.leaf)
	if !t.prepaid {
		t.mon.pteWrite(1)
	}
}

// rollback undoes the applied writes[:failed] in reverse order after
// writes[failed] failed to write.
func (t *mmuTxn) rollback(failed int) {
	mon, as := t.mon, t.as
	for i := failed - 1; i >= 0; i-- {
		w := t.writes[i]
		var err error
		if w.hadLeaf {
			err = as.tables.Map(w.va, w.prevLeaf)
		} else {
			err = as.tables.Unmap(w.va)
		}
		if err != nil {
			// A rollback that cannot restore a leaf leaves the address space
			// inconsistent with the monitor's bookkeeping — that must never
			// vanish silently.
			mon.recordViolation("mmu rollback: restore of va %#x failed: %v", w.va, err)
		} else {
			mon.pteWrite(1)
		}
		if w.hadFrame {
			as.userFrames[w.va] = w.prevF
		} else {
			delete(as.userFrames, w.va)
		}
	}
	// With every applied leaf undone (and the failing write never made),
	// any table page this transaction allocated on these paths is empty
	// again: release it so a failed transaction consumes no PTP frames.
	// Pre-existing tables are refused and left in place.
	if len(mon.txnPTPs) > 0 {
		for i := failed; i >= 0; i-- {
			va := t.writes[i].va
			if err := as.tables.Prune(va, func(f mem.Frame) bool {
				if !slices.Contains(mon.txnPTPs, f) {
					return false
				}
				mon.freePTP(f, va)
				mon.pteWrite(1) // the cleared parent entry
				return true
			}); err != nil {
				mon.recordViolation("mmu rollback: release of page tables on va %#x failed: %v", va, err)
			}
		}
	}
	// Another core may have walked the tables mid-commit and cached the
	// leaves this rollback just rewrote; one shootdown over every undone VA
	// closes that window before the gate returns.
	if failed > 0 {
		pairs := make([]cpu.ShootdownPair, failed)
		for i := range pairs {
			pairs[i] = cpu.ShootdownPair{Root: as.tables.Root, VA: t.writes[i].va}
		}
		mon.M.ShootdownBatch(t.c, pairs)
	}
}

// flush invalidates the stale pages as one coalesced shootdown — a page
// written twice is flushed once — and returns how many pages it flushed and
// the IPIs it sent. An empty set issues nothing: ShootdownBatch requires a
// ring-0 initiator even with nothing to flush, and Table 4's MMU row enters
// the gate from a ring-3 task context.
func (t *mmuTxn) flush() (pages, sent int) {
	var pairs []cpu.ShootdownPair
	for _, w := range t.writes {
		if w.stale {
			pairs = append(pairs, cpu.ShootdownPair{Root: t.as.tables.Root, VA: w.va})
		}
	}
	if len(pairs) == 0 {
		return 0, 0
	}
	slices.SortFunc(pairs, func(a, b cpu.ShootdownPair) int { return cmp.Compare(a.VA, b.VA) })
	pairs = slices.Compact(pairs)
	sent = t.mon.M.ShootdownBatch(t.c, pairs)
	if remotes := len(t.mon.M.Cores) - 1; sent > remotes {
		t.mon.recordViolation("mmu transaction sent %d shootdown IPIs for one flush (max %d)",
			sent, remotes)
	}
	return len(pairs), sent
}

// clears returns one clearing write per VA.
func clears(vas []paging.Addr) []leafWrite {
	writes := make([]leafWrite, len(vas))
	for i, va := range vas {
		writes[i].va = va
	}
	return writes
}

// clearsOfMapped returns a clearing write for each VA of vas that holds a
// user leaf.
func (as *asState) clearsOfMapped(vas []paging.Addr) []leafWrite {
	var writes []leafWrite
	for _, va := range vas {
		if as.mapped(va) {
			writes = append(writes, leafWrite{va: va})
		}
	}
	return writes
}

// mapped reports whether va holds a user leaf.
func (as *asState) mapped(va paging.Addr) bool {
	_, ok := as.userFrames[va]
	return ok
}

// sortedKeys returns m's keys in ascending order: a monitor walk over a map
// that writes, charges or records must not follow Go's map order.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
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
	mon.M.ChargeIn("monitor/pte-write", n*costs.EreborPTEWriteBody)
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
