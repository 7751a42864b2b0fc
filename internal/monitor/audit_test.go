package monitor

import (
	"fmt"
	"reflect"
	"testing"
	"testing/quick"

	"github.com/asterisc-release/erebor-go/internal/audit"
	"github.com/asterisc-release/erebor-go/internal/mem"
	"github.com/asterisc-release/erebor-go/internal/paging"
)

func TestAuditCleanAfterBoot(t *testing.T) {
	mon := bootedMonitor(t)
	if v := mon.Audit(); len(v) != 0 {
		t.Fatalf("violations after boot: %v", v)
	}
}

// auditFuzzer drives the monitor with a random but well-formed sequence of
// EMC operations; the security invariants must hold after every step.
type auditFuzzer struct {
	mon    *Monitor
	asids  []ASID
	sbs    []SandboxID
	frames []mem.Frame
	vas    map[ASID]paging.Addr
	common int
}

func (f *auditFuzzer) step(op uint8, t *testing.T) {
	c := f.mon.M.Cores[0]
	switch op % 8 {
	case 0: // new address space
		if len(f.asids) >= 4 {
			return
		}
		asid, err := f.mon.EMCCreateAS(c, mem.OwnerTaskBase+mem.Owner(len(f.asids)))
		if err != nil {
			return
		}
		f.asids = append(f.asids, asid)
		f.vas[asid] = 0x10_0000
	case 1: // new sandbox on a free AS
		for _, asid := range f.asids {
			if f.mon.sandboxByAS(asid) == nil {
				sb, err := f.mon.EMCCreateSandbox(c, asid, 64)
				if err == nil {
					f.sbs = append(f.sbs, sb)
				}
				return
			}
		}
	case 2: // map an anonymous page into a (non-sandbox) AS
		if len(f.asids) == 0 {
			return
		}
		asid := f.asids[int(op/8)%len(f.asids)]
		as := f.mon.addrSpaces[asid]
		fr, err := f.mon.M.Phys.Alloc(as.owner)
		if err != nil {
			return
		}
		va := f.vas[asid]
		f.vas[asid] += mem.PageSize
		if err := f.mon.EMCMapUser(c, asid, va, fr, MapFlags{Writable: true}); err != nil {
			_ = f.mon.M.Phys.Free(fr)
			return
		}
		f.frames = append(f.frames, fr)
	case 3: // declare confined memory
		if len(f.sbs) == 0 {
			return
		}
		sb := f.sbs[int(op/8)%len(f.sbs)]
		va := paging.Addr(0x2000_0000) + paging.Addr(int(op)*mem.PageSize*4)
		_ = f.mon.EMCDeclareConfined(c, sb, va, 2, op%2 == 0)
	case 4: // create + attach + seal a common region
		name := string(rune('a' + f.common%20))
		f.common++
		if err := f.mon.EMCCommonCreate(c, name, 2); err != nil {
			return
		}
		if len(f.sbs) > 0 {
			sb := f.sbs[int(op/8)%len(f.sbs)]
			_ = f.mon.EMCCommonAttach(c, sb, name, paging.Addr(0x4000_0000)+paging.Addr(f.common)*0x10_0000, op%2 == 0)
			if op%3 == 0 {
				f.mon.sealCommons(f.mon.M.Cores[0], f.mon.sandboxes[sb])
			}
		}
	case 5: // unmap something
		if len(f.asids) == 0 {
			return
		}
		asid := f.asids[int(op/8)%len(f.asids)]
		if f.vas[asid] > 0x10_0000 {
			_ = f.mon.EMCUnmapUser(c, asid, f.vas[asid]-mem.PageSize)
		}
	case 6: // fault in a sandbox page via the kernel path
		if len(f.sbs) == 0 {
			return
		}
		sb := f.sbs[int(op/8)%len(f.sbs)]
		state := f.mon.sandboxes[sb]
		for va := range state.confinedLeaf {
			_ = f.mon.EMCMapSandboxFault(c, state.asid, va, false)
			break
		}
	case 7: // end a sandbox session
		if len(f.sbs) == 0 || op < 224 {
			return
		}
		sb := f.sbs[0]
		f.sbs = f.sbs[1:]
		_ = f.mon.EMCSandboxEnd(c, sb)
	}
}

// confinedSandbox boots a monitor with one sandbox holding a faulted-in
// confined frame, returning the monitor, the sandbox ID and the frame.
func confinedSandbox(t *testing.T) (*Monitor, SandboxID, mem.Frame) {
	t.Helper()
	mon := bootedMonitor(t)
	c := mon.M.Cores[0]
	asid, err := mon.EMCCreateAS(c, mem.OwnerTaskBase)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := mon.EMCCreateSandbox(c, asid, 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := mon.EMCDeclareConfined(c, sb, 0x2000_0000, 1, false); err != nil {
		t.Fatal(err)
	}
	state := mon.sandboxes[sb]
	for va := range state.confinedLeaf {
		if err := mon.EMCMapSandboxFault(c, state.asid, va, true); err != nil {
			t.Fatal(err)
		}
	}
	var frame mem.Frame
	found := false
	for f, owner := range mon.confinedOwner {
		if owner == sb {
			frame, found = f, true
			break
		}
	}
	if !found {
		t.Fatal("no confined frame materialized")
	}
	if v := mon.Audit(); len(v) != 0 {
		t.Fatalf("violations before tampering: %v", v)
	}
	return mon, sb, frame
}

// TestAuditTypedViolationCodes tampers with machine state behind the
// monitor's back and asserts the audit reports each break with its typed
// code — the contract the continuous watchdog and the JSONL event log
// build on.
func TestAuditTypedViolationCodes(t *testing.T) {
	t.Run("confined-multi-mapped", func(t *testing.T) {
		mon, sb, frame := confinedSandbox(t)
		c := mon.M.Cores[0]
		// A second, foreign mapping of a confined frame: the cross-tenant
		// leak the single-mapping invariant exists to prevent.
		asid2, err := mon.EMCCreateAS(c, mem.OwnerTaskBase+1)
		if err != nil {
			t.Fatal(err)
		}
		as2 := mon.addrSpaces[asid2]
		va := paging.Addr(0x3000_0000)
		if err := as2.tables.Map(va, leafFor(frame, MapFlags{Writable: true})); err != nil {
			t.Fatal(err)
		}
		as2.userFrames[va] = frame
		v := mon.Audit()
		if !audit.Contains(v, audit.ConfinedMultiMapped) {
			t.Fatalf("missing ConfinedMultiMapped: %v", v)
		}
		if !audit.Contains(v, audit.ConfinedForeignMapping) {
			t.Fatalf("missing ConfinedForeignMapping: %v", v)
		}
		for _, viol := range v {
			if viol.Code == audit.ConfinedMultiMapped {
				if viol.Frame != frame {
					t.Fatalf("violation frame = %d, want %d", viol.Frame, frame)
				}
				if viol.Code.Invariant() != "I4" {
					t.Fatalf("invariant = %q, want I4", viol.Code.Invariant())
				}
			}
		}
		_ = sb
	})

	t.Run("confined-unpinned-and-shared", func(t *testing.T) {
		mon, _, frame := confinedSandbox(t)
		if err := mon.M.Phys.SetPinned(frame, false); err != nil {
			t.Fatal(err)
		}
		if err := mon.M.Phys.SetShared(frame, true); err != nil {
			t.Fatal(err)
		}
		v := mon.Audit()
		if !audit.Contains(v, audit.ConfinedUnpinned) {
			t.Fatalf("missing ConfinedUnpinned: %v", v)
		}
		if !audit.Contains(v, audit.ConfinedShared) {
			t.Fatalf("missing ConfinedShared: %v", v)
		}
		// Sharing a non-shared-io frame also breaks I6.
		if !audit.Contains(v, audit.SharedOutsideIO) {
			t.Fatalf("missing SharedOutsideIO: %v", v)
		}
	})

	t.Run("ptp-user-mapped", func(t *testing.T) {
		mon, _, _ := confinedSandbox(t)
		c := mon.M.Cores[0]
		asid2, err := mon.EMCCreateAS(c, mem.OwnerTaskBase+1)
		if err != nil {
			t.Fatal(err)
		}
		var ptp mem.Frame
		for f := range mon.ptps {
			ptp = f
			break
		}
		as2 := mon.addrSpaces[asid2]
		va := paging.Addr(0x3100_0000)
		if err := as2.tables.Map(va, leafFor(ptp, MapFlags{})); err != nil {
			t.Fatal(err)
		}
		as2.userFrames[va] = ptp
		if v := mon.Audit(); !audit.Contains(v, audit.PTPUserMapped) {
			t.Fatalf("missing PTPUserMapped: %v", v)
		}
	})

	t.Run("deterministic-order", func(t *testing.T) {
		// Violation order must be stable across audits of the same state
		// (map iteration inside the sweep is randomized; the sort is not).
		mon, _, frame := confinedSandbox(t)
		if err := mon.M.Phys.SetShared(frame, true); err != nil {
			t.Fatal(err)
		}
		if err := mon.M.Phys.SetPinned(frame, false); err != nil {
			t.Fatal(err)
		}
		first := mon.Audit()
		for i := 0; i < 8; i++ {
			again := mon.Audit()
			if len(again) != len(first) {
				t.Fatalf("audit %d: %d violations, first had %d", i, len(again), len(first))
			}
			for j := range again {
				if again[j] != first[j] {
					t.Fatalf("audit %d reordered: %v vs %v", i, again[j], first[j])
				}
			}
		}
	})
}

func TestAuditPropertyUnderRandomOps(t *testing.T) {
	mon := bootedMonitor(t)
	f := &auditFuzzer{mon: mon, vas: make(map[ASID]paging.Addr)}
	steps := 0
	prop := func(op uint8) bool {
		f.step(op, t)
		steps++
		// A sweep costs O(tracked state), not O(frames), so audit every step.
		if v := mon.Audit(); len(v) != 0 {
			t.Logf("violations after %d steps: %v", steps, v)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
	if v := mon.Audit(); len(v) != 0 {
		t.Fatalf("final violations: %v", v)
	}
}

// TestAuditSharedOutsideIOFiresAndClears flips a general-pool frame
// CVM-shared behind the monitor's MapGPA policy: I6 must report it with the
// typed code and detail text, and stop reporting it once the frame is
// private again — whether SetShared flips it back or Free releases it.
func TestAuditSharedOutsideIOFiresAndClears(t *testing.T) {
	mon := bootedMonitor(t)
	phys := mon.M.Phys
	io, err := phys.AllocRegion(RegionSharedIO, mem.OwnerDevice)
	if err != nil {
		t.Fatal(err)
	}
	if err := phys.SetShared(io, true); err != nil {
		t.Fatal(err)
	}
	f, err := phys.Alloc(mem.OwnerKernel)
	if err != nil {
		t.Fatal(err)
	}
	if v := mon.Audit(); len(v) != 0 {
		t.Fatalf("a shared shared-io frame is legal, got %v", v)
	}
	want := audit.Violation{Code: audit.SharedOutsideIO, Frame: f, Detail: `(kernel, region "") is CVM-shared`}
	for _, clear := range []struct {
		name string
		fn   func() error
	}{
		{"set-private", func() error { return phys.SetShared(f, false) }},
		{"free", func() error { return phys.Free(f) }},
	} {
		if err := phys.SetShared(f, true); err != nil {
			t.Fatal(err)
		}
		if v := mon.Audit(); len(v) != 1 || v[0] != want {
			t.Fatalf("before %s: got %v, want [%v]", clear.name, v, want)
		}
		if err := clear.fn(); err != nil {
			t.Fatal(err)
		}
		if v := mon.Audit(); len(v) != 0 {
			t.Fatalf("after %s: violations remain: %v", clear.name, v)
		}
	}
}

// TestAuditCensusViolationsExact breaks every invariant that reads the
// per-sweep mapping and sharer censuses (I4, I5, I7, I9) in one world and
// pins the complete violation list — codes, frames, detail text and order.
func TestAuditCensusViolationsExact(t *testing.T) {
	mon := bootedMonitor(t)
	c := mon.M.Cores[0]
	minFrame := func(set map[mem.Frame]bool, skip map[mem.Frame]bool) mem.Frame {
		best := mem.NoFrame
		for f := range set {
			if !skip[f] && f < best {
				best = f
			}
		}
		return best
	}

	// Two live forks share a two-page template; the first has faulted in
	// the shared read-only leaf of page 0.
	tid := makeTemplate(t, mon, 2)
	_, fork := forkOne(t, mon, tid, mem.OwnerTaskBase+1)
	forkOne(t, mon, tid, mem.OwnerTaskBase+2)
	if err := mon.readSandbox(mon.sandboxes[fork], snapBase, make([]byte, 8)); err != nil {
		t.Fatal(err)
	}
	tf0, tf1 := mon.templates[tid].frames[0], mon.templates[tid].frames[1]

	// A sandbox with one faulted-in confined page and a sealed common.
	asid3, err := mon.EMCCreateAS(c, mem.OwnerTaskBase+3)
	if err != nil {
		t.Fatal(err)
	}
	sb3, err := mon.EMCCreateSandbox(c, asid3, 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := mon.EMCDeclareConfined(c, sb3, 0x2000_0000, 1, false); err != nil {
		t.Fatal(err)
	}
	if err := mon.EMCMapSandboxFault(c, asid3, 0x2000_0000, true); err != nil {
		t.Fatal(err)
	}
	cf := mon.sandboxes[sb3].confined[0x2000_0000]
	if err := mon.EMCCommonCreate(c, "lib", 1); err != nil {
		t.Fatal(err)
	}
	if err := mon.EMCCommonAttach(c, sb3, "lib", 0x4000_0000, false); err != nil {
		t.Fatal(err)
	}
	mon.sealCommons(c, mon.sandboxes[sb3])
	common := mon.commons["lib"].frames[0]
	auditClean(t, mon, "before tampering")

	// Tamper: map each protected frame into a foreign address space behind
	// the monitor's back (the PTP twice), and leak a template reference.
	asid2, err := mon.EMCCreateAS(c, mem.OwnerTaskBase+4)
	if err != nil {
		t.Fatal(err)
	}
	ptp := minFrame(mon.ptps, nil)
	mf := minFrame(mon.monitorFrames, mon.ptps)
	as2 := mon.addrSpaces[asid2]
	va := func(i int) paging.Addr { return paging.Addr(0x3000_0000 + i*mem.PageSize) }
	for i, m := range []struct {
		f        mem.Frame
		writable bool
	}{{cf, false}, {common, true}, {ptp, false}, {ptp, false}, {mf, false}, {tf0, true}} {
		if err := as2.tables.Map(va(i), leafFor(m.f, MapFlags{Writable: m.writable})); err != nil {
			t.Fatal(err)
		}
		as2.userFrames[va(i)] = m.f
	}
	if err := mon.M.Phys.IncRef(tf1); err != nil {
		t.Fatal(err)
	}

	want := []audit.Violation{
		{Code: audit.ConfinedMultiMapped, Frame: cf, Detail: "mapped 2 times"},
		{Code: audit.ConfinedForeignMapping, Frame: cf, Detail: fmt.Sprintf("mapped outside sandbox %d's address space (AS %d)", sb3, asid2)},
		{Code: audit.SealedWritable, Frame: common, Detail: fmt.Sprintf("sealed region \"lib\" writable at %#x in AS %d", va(1), asid2)},
		{Code: audit.PTPUserMapped, Frame: ptp, Detail: "mapped into user space"},
		{Code: audit.MonitorFrameUserMapped, Frame: mf, Detail: "mapped into user space"},
		{Code: audit.CowRefcountMismatch, Frame: tf1, Detail: fmt.Sprintf("template %d: refcount 4, want 3 (baseline + 2 live sharer(s))", tid)},
		{Code: audit.CowWritableShared, Frame: tf0, Detail: fmt.Sprintf("template %d frame writable at %#x in AS %d", tid, va(5), asid2)},
		{Code: audit.CowForeignMapping, Frame: tf0, Detail: fmt.Sprintf("template %d frame mapped at %#x in AS %d, which holds no share", tid, va(5), asid2)},
	}
	if got := mon.Audit(); !reflect.DeepEqual(got, want) {
		t.Fatalf("violations:\n got %v\nwant %v", got, want)
	}
}
