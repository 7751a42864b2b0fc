package monitor

import (
	"errors"
	"reflect"
	"testing"

	"github.com/asterisc-release/erebor-go/internal/costs"
	"github.com/asterisc-release/erebor-go/internal/cpu"
	"github.com/asterisc-release/erebor-go/internal/mem"
	"github.com/asterisc-release/erebor-go/internal/paging"
)

// Tests for the MMU transaction engine (mmuTxn) behind every user-mapping
// EMC: the range check every operation shares, page-table-page release on a
// failed single op, and the cost contracts each wrapper keeps.

// TestUnmapUserRefusesKernelHalf: the kernel half of every user address
// space aliases the shared kernel tables, so an unmap through a user AS of a
// direct-map address would clear the leaf every address space (and the
// monitor) translates that frame through. The request must be refused and
// the shared leaf left intact.
func TestUnmapUserRefusesKernelHalf(t *testing.T) {
	mon := bootedMonitor(t)
	c := mon.M.Cores[0]
	asid, err := mon.EMCCreateAS(c, mem.OwnerTaskBase+1)
	if err != nil {
		t.Fatal(err)
	}
	ptp := mon.addrSpaces[asid].tables.Root
	va := DirectMapAddr(ptp)
	if pte, _, fault := mon.kernelTables.Walk(va); fault != nil || !pte.Is(paging.Present) {
		t.Fatalf("direct-map leaf of PTP %d not present before the attack", ptp)
	}

	err = mon.EMCUnmapUser(c, asid, va)
	var d *ErrDenied
	if !errors.As(err, &d) {
		t.Fatalf("unmap of kernel-half va %#x: err = %v, want *ErrDenied", va, err)
	}
	if pte, _, fault := mon.kernelTables.Walk(va); fault != nil || !pte.Is(paging.Present) {
		t.Fatalf("direct-map leaf of PTP %d cleared through a user address space", ptp)
	}
	if v := mon.Audit(); len(v) != 0 {
		t.Fatalf("audit violations after refused kernel-half unmap: %v", v)
	}
}

// TestMapUserFailureReleasesPTPs: a single-op map that fails on page-table
// exhaustion returns the page-table pages it allocated to the monitor pool,
// exactly as a failed batch does, instead of orphaning them.
func TestMapUserFailureReleasesPTPs(t *testing.T) {
	mon := bootedMonitor(t)
	c := mon.M.Cores[0]
	owner := mem.OwnerTaskBase + 1
	asid, err := mon.EMCCreateAS(c, owner)
	if err != nil {
		t.Fatal(err)
	}
	f := mustAlloc(t, mon, owner)

	// Leave exactly one frame in the monitor pool: 0x4000_0000 needs a new
	// PD (allocated) and a new PT (which fails).
	var drained []mem.Frame
	for {
		fr, err := mon.M.Phys.AllocRegion(RegionMonitor, mem.OwnerMonitor)
		if err != nil {
			break
		}
		drained = append(drained, fr)
	}
	if len(drained) < 1 {
		t.Fatal("monitor pool too small for the test")
	}
	if err := mon.M.Phys.Free(drained[0]); err != nil {
		t.Fatal(err)
	}

	ptpsBefore := len(mon.ptps)
	pteBefore := mon.Stats.PTEWrites
	if err := mon.EMCMapUser(c, asid, 0x4000_0000, f, MapFlags{Writable: true}); err == nil {
		t.Fatal("map committed despite page-table exhaustion")
	}
	if got := len(mon.ptps); got != ptpsBefore {
		t.Fatalf("failed map orphaned page-table pages: %d -> %d", ptpsBefore, got)
	}
	if _, err := mon.M.Phys.AllocRegion(RegionMonitor, mem.OwnerMonitor); err != nil {
		t.Fatalf("PD frame not returned to the monitor pool: %v", err)
	}
	// The refused op's own PTE-write body plus the cleared parent entry of
	// the released PD.
	if got := mon.Stats.PTEWrites - pteBefore; got != 2 {
		t.Fatalf("PTEWrites delta = %d, want 2 (refusal + 1 PTP unlink)", got)
	}
	if v := mon.Audit(); len(v) != 0 {
		t.Fatalf("audit violations after failed map: %v", v)
	}
}

// TestUserOpRefusalCharges: every single-op EMC costs the gate plus one
// PTE-write body and counts one PTE write even when it is refused (Table
// 4's MMU row charges the policy check whether or not it passes).
func TestUserOpRefusalCharges(t *testing.T) {
	mon := bootedMonitor(t)
	c := mon.M.Cores[0]
	owner := mem.OwnerTaskBase + 1
	asid, err := mon.EMCCreateAS(c, owner)
	if err != nil {
		t.Fatal(err)
	}
	mapped := mustAlloc(t, mon, owner)
	foreign := mustAlloc(t, mon, mem.OwnerTaskBase+2)
	if err := mon.EMCMapUser(c, asid, 0x10_0000, mapped, MapFlags{Writable: true}); err != nil {
		t.Fatal(err)
	}
	const unknown = ASID(9999)
	kernelVA := DirectMapAddr(mapped)

	for _, tc := range []struct {
		name string
		call func() error
	}{
		{"map/foreign-frame", func() error { return mon.EMCMapUser(c, asid, 0x10_1000, foreign, MapFlags{}) }},
		{"unmap/kernel-half", func() error { return mon.EMCUnmapUser(c, asid, kernelVA) }},
		{"protect/not-mapped", func() error { return mon.EMCProtectUser(c, asid, 0x10_2000, MapFlags{}) }},
		{"reclaim/not-common", func() error { return mon.EMCReclaimUser(c, asid, 0x10_0000) }},
		{"map/unknown-as", func() error { return mon.EMCMapUser(c, unknown, 0x10_1000, mapped, MapFlags{}) }},
		{"unmap/unknown-as", func() error { return mon.EMCUnmapUser(c, unknown, 0x10_0000) }},
		{"protect/unknown-as", func() error { return mon.EMCProtectUser(c, unknown, 0x10_0000, MapFlags{}) }},
		{"reclaim/unknown-as", func() error { return mon.EMCReclaimUser(c, unknown, 0x10_0000) }},
	} {
		clock, ptes := mon.M.Clock.Now(), mon.Stats.PTEWrites
		err := tc.call()
		var d *ErrDenied
		if !errors.As(err, &d) {
			t.Fatalf("%s: err = %v, want *ErrDenied", tc.name, err)
		}
		if got, want := mon.M.Clock.Now()-clock, uint64(costs.EreborPTEWrite); got != want {
			t.Fatalf("%s: refused op cost %d cycles, want %d (gate + one PTE-write body)", tc.name, got, want)
		}
		if got := mon.Stats.PTEWrites - ptes; got != 1 {
			t.Fatalf("%s: PTEWrites delta = %d, want 1", tc.name, got)
		}
	}
}

// TestMapUserBatchRefusalChargesGateOnly: a batch refused in validation —
// or aimed at an unknown address space — pays the gate and nothing else.
func TestMapUserBatchRefusalChargesGateOnly(t *testing.T) {
	mon := bootedMonitor(t)
	c := mon.M.Cores[0]
	owner := mem.OwnerTaskBase + 1
	asid, err := mon.EMCCreateAS(c, owner)
	if err != nil {
		t.Fatal(err)
	}
	reqs := []MapReq{
		{VA: 0x10_0000, Frame: mustAlloc(t, mon, owner), Flags: MapFlags{Writable: true}},
		{VA: 0x10_1000, Frame: mustAlloc(t, mon, mem.OwnerTaskBase+2), Flags: MapFlags{Writable: true}},
	}
	for _, id := range []ASID{asid, 9999} {
		clock, ptes := mon.M.Clock.Now(), mon.Stats.PTEWrites
		if err := mon.EMCMapUserBatch(c, id, reqs); err == nil {
			t.Fatalf("as %d: batch with a foreign-owned frame was accepted", id)
		}
		if got := mon.M.Clock.Now() - clock; got != costs.EMCRoundTrip {
			t.Fatalf("as %d: refused batch cost %d cycles, want the gate's %d", id, got, costs.EMCRoundTrip)
		}
		if got := mon.Stats.PTEWrites - ptes; got != 0 {
			t.Fatalf("as %d: refused batch counted %d PTE writes", id, got)
		}
	}
}

// txnOutcome is what an MMU request sequence leaves behind: every touched
// leaf, the frame accounting, and the PTE writes and TLB invalidations it
// took.
type txnOutcome struct {
	leaves     map[paging.Addr]paging.PTE
	frames     map[paging.Addr]mem.Frame
	pteWrites  uint64
	tlbInvalid uint64
}

// TestMMUPathsAgree: the same request sequence applied as single-op EMCs,
// as one ring drain and (for its maps) as one EMCMapUserBatch ends in the
// same address space with the same PTE-write and TLB-invalidation counts:
// the wrappers share one engine and differ only in gate crossings and
// IPI coalescing.
func TestMMUPathsAgree(t *testing.T) {
	const (
		vaA = paging.Addr(0x10_0000) // pre-mapped, cached remotely: overwritten then unmapped
		vaB = paging.Addr(0x10_1000) // pre-mapped, cached remotely: made read-only
		vaC = paging.Addr(0x10_2000) // fresh: mapped, made read-only, unmapped
		vaD = paging.Addr(0x10_3000) // fresh: mapped and kept
	)
	touched := []paging.Addr{vaA, vaB, vaC, vaD}
	// setup builds identical worlds: two pre-mapped pages cached by core 1,
	// and three unmapped frames for the sequence.
	setup := func() (*Monitor, *cpu.Core, ASID, []mem.Frame) {
		mon, c0, asid, owner := ringTestAS(t, 2)
		for _, va := range []paging.Addr{vaA, vaB} {
			if err := mon.EMCMapUser(c0, asid, va, mustAlloc(t, mon, owner), MapFlags{Writable: true}); err != nil {
				t.Fatal(err)
			}
		}
		primeCore(t, mon, mon.M.Cores[1], asid, vaA, vaB)
		fresh := []mem.Frame{mustAlloc(t, mon, owner), mustAlloc(t, mon, owner), mustAlloc(t, mon, owner)}
		return mon, c0, asid, fresh
	}
	outcome := func(mon *Monitor, asid ASID, ptes, inval uint64) txnOutcome {
		as := mon.addrSpaces[asid]
		o := txnOutcome{leaves: map[paging.Addr]paging.PTE{}, frames: map[paging.Addr]mem.Frame{}}
		for _, va := range touched {
			if pte, _, fault := as.tables.Walk(va); fault == nil {
				o.leaves[va] = pte
			}
		}
		for va, f := range as.userFrames {
			o.frames[va] = f
		}
		o.pteWrites = mon.Stats.PTEWrites - ptes
		o.tlbInvalid = tlbInvalidations(mon) - inval
		return o
	}
	seq := func(f []mem.Frame) []RingReq {
		return []RingReq{
			{Op: OpMap, VA: vaA, Frame: f[0], Flags: MapFlags{Writable: true}},
			{Op: OpMap, VA: vaC, Frame: f[1], Flags: MapFlags{Writable: true}},
			{Op: OpMap, VA: vaD, Frame: f[2], Flags: MapFlags{}},
			{Op: OpProtect, VA: vaB, Flags: MapFlags{}},
			{Op: OpProtect, VA: vaC, Flags: MapFlags{}},
			{Op: OpUnmap, VA: vaA},
			{Op: OpUnmap, VA: vaC},
		}
	}
	single := func(mon *Monitor, c *cpu.Core, asid ASID, reqs []RingReq) {
		for _, r := range reqs {
			var err error
			switch r.Op {
			case OpMap:
				err = mon.EMCMapUser(c, asid, r.VA, r.Frame, r.Flags)
			case OpProtect:
				err = mon.EMCProtectUser(c, asid, r.VA, r.Flags)
			case OpUnmap:
				err = mon.EMCUnmapUser(c, asid, r.VA)
			}
			if err != nil {
				t.Fatalf("single-op %s %#x: %v", r.Op, r.VA, err)
			}
		}
	}
	run := func(apply func(*Monitor, *cpu.Core, ASID, []RingReq), maps bool) txnOutcome {
		mon, c0, asid, fresh := setup()
		reqs := seq(fresh)
		if maps {
			reqs = reqs[:3]
		}
		ptes, inval := mon.Stats.PTEWrites, tlbInvalidations(mon)
		apply(mon, c0, asid, reqs)
		if v := mon.Audit(); len(v) != 0 {
			t.Fatalf("audit violations: %v", v)
		}
		return outcome(mon, asid, ptes, inval)
	}
	drain := func(mon *Monitor, c *cpu.Core, asid ASID, reqs []RingReq) {
		ring := NewSubmitRing(asid, 0)
		for _, r := range reqs {
			ring.Push(r)
		}
		if err := mon.EMCRingDrain(c, ring); err != nil {
			t.Fatal(err)
		}
	}
	batch := func(mon *Monitor, c *cpu.Core, asid ASID, reqs []RingReq) {
		var mr []MapReq
		for _, r := range reqs {
			mr = append(mr, MapReq{VA: r.VA, Frame: r.Frame, Flags: r.Flags})
		}
		if err := mon.EMCMapUserBatch(c, asid, mr); err != nil {
			t.Fatal(err)
		}
	}

	sync, ring := run(single, false), run(drain, false)
	if !reflect.DeepEqual(sync, ring) {
		t.Fatalf("single-op and ring outcomes differ:\nsingle %+v\nring   %+v", sync, ring)
	}
	if sync.pteWrites != 7 || sync.tlbInvalid != 2 {
		t.Fatalf("sequence took %d PTE writes and %d TLB invalidations, want 7 and 2",
			sync.pteWrites, sync.tlbInvalid)
	}
	syncMaps, batchMaps := run(single, true), run(batch, true)
	if !reflect.DeepEqual(syncMaps, batchMaps) {
		t.Fatalf("single-op and batch map outcomes differ:\nsingle %+v\nbatch  %+v", syncMaps, batchMaps)
	}
	if batchMaps.pteWrites != 3 || batchMaps.tlbInvalid != 1 {
		t.Fatalf("maps took %d PTE writes and %d TLB invalidations, want 3 and 1",
			batchMaps.pteWrites, batchMaps.tlbInvalid)
	}
}

// tlbInvalidations sums the TLB entries every core has dropped.
func tlbInvalidations(mon *Monitor) uint64 {
	var n uint64
	for _, c := range mon.M.Cores {
		n += c.TLBInvalidations
	}
	return n
}
