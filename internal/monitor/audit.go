package monitor

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"github.com/asterisc-release/erebor-go/internal/audit"
	"github.com/asterisc-release/erebor-go/internal/mem"
	"github.com/asterisc-release/erebor-go/internal/paging"
)

// Audit verifies the monitor's global security invariants over the entire
// machine state and returns a typed audit.Violation for every break found.
// It is the executable form of the §8 claims: after any sequence of EMCs
// the invariants must hold. Tests drive random operation sequences against
// it, and the continuous watchdog (watchdog.go) sweeps it at virtual-clock
// cadence and at phase boundaries while serving.
//
// Invariants:
//
//	I1. Every page-table page is keyed KeyPTP in the direct map (kernel may
//	    read, never write).
//	I2. Every monitor frame is keyed KeyMonitor in the direct map (kernel
//	    may neither read nor write).
//	I3. W-xor-X: no kernel-half mapping is both writable and executable,
//	    and kernel-text frames are nowhere writable.
//	I4. Confined frames are pinned, CVM-private, and mapped in at most one
//	    address space — the one hosting their owning sandbox.
//	I5. Sealed common regions have no writable mapping anywhere.
//	I6. Only shared-io frames are CVM-shared.
//	I7. No monitor or PTP frame is mapped into any user address space.
//	I8. No frame crosses the proxy to a destination outside its tenant's
//	    compiled egress allowlist (swept when an egress ledger is wired).
//	I9. Copy-on-write refcount conservation: every template frame's
//	    refcount equals the template's baseline reference plus its live
//	    fork sharers, no shared frame has a writable mapping anywhere, and
//	    every mapping of a shared frame sits in a sharer's address space.
func (mon *Monitor) Audit() []audit.Violation {
	var v []audit.Violation
	report := func(code audit.Code, frame mem.Frame, format string, args ...any) {
		v = append(v, audit.Violation{
			Code:   code,
			Frame:  frame,
			Detail: fmt.Sprintf(format, args...),
		})
	}

	phys := mon.M.Phys
	sc := &mon.auditScratch

	// I1/I2: key assignments in the direct map.
	for f := range mon.ptps {
		e, _, fault := mon.kernelTables.Walk(DirectMapAddr(f))
		if fault != nil {
			report(audit.PTPUnmapped, f, "unmapped in direct map")
			continue
		}
		if e.Key() != KeyPTP {
			report(audit.PTPMiskeyed, f, "keyed %d, want %d", e.Key(), KeyPTP)
		}
	}
	for f := range mon.monitorFrames {
		if mon.ptps[f] {
			continue
		}
		e, _, fault := mon.kernelTables.Walk(DirectMapAddr(f))
		if fault != nil {
			report(audit.MonitorFrameUnmapped, f, "unmapped in direct map")
			continue
		}
		if e.Key() != KeyMonitor {
			report(audit.MonitorFrameMiskeyed, f, "keyed %d, want %d", e.Key(), KeyMonitor)
		}
	}

	// I3: kernel text never writable through the direct map, and the
	// kernel-half of the shared tables is W^X.
	for f := range mon.kernelText {
		e, _, fault := mon.kernelTables.Walk(DirectMapAddr(f))
		if fault == nil && e.Is(paging.Writable) {
			report(audit.KernelTextWritable, f, "writable via direct map")
		}
	}

	// Per-frame mapping census across all registered address spaces.
	sc.censusMappings(mon)

	// I4: confined single-mapping, pinning, privacy.
	for f, owner := range mon.confinedOwner {
		meta, err := phys.Meta(f)
		if err != nil {
			report(audit.ConfinedMetaMissing, f, "%v", err)
			continue
		}
		if !meta.Pinned {
			report(audit.ConfinedUnpinned, f, "not pinned")
		}
		if meta.Shared {
			report(audit.ConfinedShared, f, "is CVM-shared")
		}
		maps := sc.mappingsOf(f)
		if len(maps) > 1 {
			report(audit.ConfinedMultiMapped, f, "mapped %d times", len(maps))
		}
		sb := mon.sandboxes[owner]
		for _, m := range maps {
			if sb == nil || m.asid != sb.asid {
				report(audit.ConfinedForeignMapping, f, "mapped outside sandbox %d's address space (AS %d)", owner, m.asid)
			}
		}
	}

	// I5: sealed common regions are read-only everywhere.
	for name, cr := range mon.commons {
		if !cr.sealed {
			continue
		}
		for _, f := range cr.frames {
			for _, m := range sc.mappingsOf(f) {
				if m.pte.Is(paging.Writable) {
					report(audit.SealedWritable, f, "sealed region %q writable at %#x in AS %d", name, m.va, m.asid)
				}
			}
		}
	}

	// I6: only shared-io frames may be CVM-shared. mem.Physical indexes the
	// shared frames, so this visits those few rather than every frame.
	phys.SharedFrames(func(f mem.Frame, meta mem.FrameMeta) {
		if meta.Region != RegionSharedIO {
			report(audit.SharedOutsideIO, f, "(%s, region %q) is CVM-shared", meta.Owner, meta.Region)
		}
	})

	// I7: no monitor/PTP frame reachable from user space. The census is
	// sorted by frame, so each mapped frame is checked once.
	for i, m := range sc.maps {
		if i > 0 && sc.maps[i-1].frame == m.frame {
			continue
		}
		if mon.ptps[m.frame] {
			report(audit.PTPUserMapped, m.frame, "mapped into user space")
		}
		if mon.monitorFrames[m.frame] {
			report(audit.MonitorFrameUserMapped, m.frame, "mapped into user space")
		}
	}

	// I9: copy-on-write refcount conservation. A live fork holds exactly one
	// reference per page it still shares with its template; the template
	// itself holds a baseline of 1 per frame. Anything else — a ref nobody
	// accounts for, a writable PTE on a shared frame, a mapping in a
	// non-sharer's address space — breaks the fork isolation argument.
	sc.censusSharers(mon)
	for f, tid := range mon.templateFrames {
		refs, err := phys.RefCount(f)
		if err != nil {
			report(audit.CowRefcountMismatch, f, "template %d frame meta missing: %v", tid, err)
			continue
		}
		sharers := sc.sharersOf(f)
		want := uint32(1 + len(sharers))
		if refs != want {
			report(audit.CowRefcountMismatch, f,
				"template %d: refcount %d, want %d (baseline + %d live sharer(s))",
				tid, refs, want, len(sharers))
		}
		for _, m := range sc.mappingsOf(f) {
			if m.pte.Is(paging.Writable) {
				report(audit.CowWritableShared, f,
					"template %d frame writable at %#x in AS %d", tid, m.va, m.asid)
			}
			if !slices.ContainsFunc(sharers, func(s frameShare) bool { return s.asid == m.asid }) {
				report(audit.CowForeignMapping, f,
					"template %d frame mapped at %#x in AS %d, which holds no share", tid, m.va, m.asid)
			}
		}
	}

	// I8: every frame the egress ledger says crossed the proxy must be
	// inside its tenant's registered allowlist. The ledger re-evaluates its
	// allow records against the policies compiled at admission — not
	// whatever the untrusted proxy consulted — so forged allows are caught.
	if mon.Egress != nil {
		v = append(v, mon.Egress.AuditViolations()...)
	}

	// Several sweeps above walk Go maps, whose iteration order is random;
	// the watchdog's JSONL event log and metrics series must be
	// byte-identical across runs, so fix a total order here.
	slices.SortFunc(v, func(a, b audit.Violation) int {
		if c := cmp.Compare(a.Code, b.Code); c != 0 {
			return c
		}
		if c := cmp.Compare(a.Frame, b.Frame); c != 0 {
			return c
		}
		return strings.Compare(a.Detail, b.Detail)
	})
	return v
}

// auditScratch is the sweep's working memory, owned by the monitor and
// reset (not reallocated) at every sweep, so a clean sweep allocates
// nothing once the slices have grown to the tracked state's size.
type auditScratch struct {
	// maps is the user-mapping census: one entry per present user leaf
	// across all address spaces, sorted by frame.
	maps []userMapping
	// shares lists each (template frame, live fork AS) share once, sorted
	// by frame then ASID.
	shares []frameShare
}

type userMapping struct {
	frame mem.Frame
	asid  ASID
	va    paging.Addr
	pte   paging.PTE
}

type frameShare struct {
	frame mem.Frame
	asid  ASID
}

func (sc *auditScratch) censusMappings(mon *Monitor) {
	sc.maps = sc.maps[:0]
	for asid, as := range mon.addrSpaces {
		for va, f := range as.userFrames {
			e, _, fault := as.tables.Walk(va)
			if fault != nil {
				continue
			}
			sc.maps = append(sc.maps, userMapping{f, asid, va, e})
		}
	}
	slices.SortFunc(sc.maps, func(a, b userMapping) int { return cmp.Compare(a.frame, b.frame) })
}

// mappingsOf returns every census mapping of f.
func (sc *auditScratch) mappingsOf(f mem.Frame) []userMapping {
	return frameRun(sc.maps, f, func(m userMapping) mem.Frame { return m.frame })
}

func (sc *auditScratch) censusSharers(mon *Monitor) {
	sc.shares = sc.shares[:0]
	for _, sb := range mon.sandboxes {
		if sb.destroyed || sb.template == 0 {
			continue
		}
		for va := range sb.cowPages {
			sc.shares = append(sc.shares, frameShare{sb.confined[va], sb.asid})
		}
	}
	slices.SortFunc(sc.shares, func(a, b frameShare) int {
		if c := cmp.Compare(a.frame, b.frame); c != 0 {
			return c
		}
		return cmp.Compare(a.asid, b.asid)
	})
	sc.shares = slices.Compact(sc.shares)
}

// sharersOf returns f's distinct live sharers.
func (sc *auditScratch) sharersOf(f mem.Frame) []frameShare {
	return frameRun(sc.shares, f, func(s frameShare) mem.Frame { return s.frame })
}

// frameRun returns the run of entries for frame f in s, which is sorted by
// frame.
func frameRun[T any](s []T, f mem.Frame, frameOf func(T) mem.Frame) []T {
	i, _ := slices.BinarySearchFunc(s, f, func(e T, f mem.Frame) int { return cmp.Compare(frameOf(e), f) })
	j := i
	for j < len(s) && frameOf(s[j]) == f {
		j++
	}
	return s[i:j]
}
