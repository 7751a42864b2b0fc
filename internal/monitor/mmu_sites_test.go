package monitor

import (
	"reflect"
	"testing"

	"github.com/asterisc-release/erebor-go/internal/mem"
	"github.com/asterisc-release/erebor-go/internal/paging"
	"github.com/asterisc-release/erebor-go/internal/trace"
)

// Tests for the monitor's own leaf writes — sandbox faults, CoW breaks,
// seals and teardown — which run on the same MMU transaction engine as the
// kernel-requested EMCs.

const siteBase = paging.Addr(0x2000_0000)

// sitePages returns the VAs of n consecutive pages from base.
func sitePages(base paging.Addr, n int) []paging.Addr {
	vas := make([]paging.Addr, n)
	for i := range vas {
		vas[i] = base + paging.Addr(i*mem.PageSize)
	}
	return vas
}

// faultIn installs each VA through the sandbox fault EMC.
func faultIn(t *testing.T, mon *Monitor, asid ASID, write bool, vas ...paging.Addr) {
	t.Helper()
	for _, va := range vas {
		if err := mon.EMCMapSandboxFault(mon.M.Cores[0], asid, va, write); err != nil {
			t.Fatalf("fault-in %#x: %v", va, err)
		}
	}
}

// coldSandbox declares npages of confined memory at siteBase in a fresh
// sandbox and faults the first installed of them in.
func coldSandbox(t *testing.T, mon *Monitor, npages uint64, installed int) (ASID, *sbState) {
	t.Helper()
	c := mon.M.Cores[0]
	asid, err := mon.EMCCreateAS(c, mem.OwnerTaskBase)
	if err != nil {
		t.Fatal(err)
	}
	id, err := mon.EMCCreateSandbox(c, asid, npages)
	if err != nil {
		t.Fatal(err)
	}
	if err := mon.EMCDeclareConfined(c, id, siteBase, npages, false); err != nil {
		t.Fatal(err)
	}
	faultIn(t, mon, asid, false, sitePages(siteBase, installed)...)
	return asid, mon.sandboxes[id]
}

// forkedSandbox forks a 2-page template and read-faults both pages in, so
// both hold installed read-only CoW leaves.
func forkedSandbox(t *testing.T, mon *Monitor) (ASID, *sbState) {
	t.Helper()
	asid, id := forkOne(t, mon, makeTemplate(t, mon, 2), mem.OwnerTaskBase+1)
	faultIn(t, mon, asid, false, sitePages(snapBase, 2)...)
	return asid, mon.sandboxes[id]
}

// commonSandbox attaches two common regions of npagesA and npagesB pages,
// writable and unsealed, to a fresh sandbox and faults every page in
// writable. Region "a" sits at CommonBase, region "b" 1 MiB above it.
func commonSandbox(t *testing.T, mon *Monitor, npagesA, npagesB int) (ASID, *sbState, []paging.Addr) {
	t.Helper()
	c := mon.M.Cores[0]
	asid, err := mon.EMCCreateAS(c, mem.OwnerTaskBase)
	if err != nil {
		t.Fatal(err)
	}
	id, err := mon.EMCCreateSandbox(c, asid, 4)
	if err != nil {
		t.Fatal(err)
	}
	var vas []paging.Addr
	for i, r := range []struct {
		name   string
		npages int
	}{{"a", npagesA}, {"b", npagesB}} {
		if r.npages == 0 {
			continue
		}
		base := CommonBase + paging.Addr(i<<20)
		if err := mon.EMCCommonCreate(c, r.name, uint64(r.npages)); err != nil {
			t.Fatal(err)
		}
		if err := mon.EMCCommonAttach(c, id, r.name, base, true); err != nil {
			t.Fatal(err)
		}
		vas = append(vas, sitePages(base, r.npages)...)
	}
	faultIn(t, mon, asid, false, vas...)
	return asid, mon.sandboxes[id], vas
}

// TestMonitorLeafWritesPreserved pins what each of the monitor's own leaf
// write sites leaves behind on a 2-core monitor whose remote core caches
// every installed translation: the leaves, the frame accounting, and the
// PTE writes, TLB invalidations, shootdown IPIs and cycles the site takes.
// Per-page sites flush exactly the leaves they change with one IPI;
// teardown sites flush the whole address space.
func TestMonitorLeafWritesPreserved(t *testing.T) {
	// world is one site under test: the address space and VAs to inspect,
	// the act, and the leaves it must leave behind (nil: none). The want is
	// read after the act, since a CoW break's copy frame only exists then;
	// the frame accounting must match the leaves exactly.
	type world struct {
		as      *asState
		touched []paging.Addr
		act     func() error
		want    func() map[paging.Addr]paging.PTE
	}
	sites := []struct {
		name                                    string
		setup                                   func(t *testing.T, mon *Monitor) world
		pteWrites, tlbInvalid, ipisSent, cycles uint64
	}{
		{
			// The kernel mprotects an installed confined page read-only; the
			// next write fault restores the declared leaf over the stale one.
			name: "fault-over-stale-leaf",
			setup: func(t *testing.T, mon *Monitor) world {
				asid, sb := coldSandbox(t, mon, 1, 1)
				va := siteBase
				if err := mon.EMCProtectUser(mon.M.Cores[0], asid, va, MapFlags{}); err != nil {
					t.Fatal(err)
				}
				primeCore(t, mon, mon.M.Cores[1], asid, va)
				return world{mon.addrSpaces[asid], []paging.Addr{va},
					func() error { return mon.EMCMapSandboxFault(mon.M.Cores[0], asid, va, true) },
					func() map[paging.Addr]paging.PTE { return map[paging.Addr]paging.PTE{va: sb.confinedLeaf[va]} }}
			},
			pteWrites: 1, tlbInvalid: 1, ipisSent: 1, cycles: 3645,
		},
		{
			// First write to an installed read-only CoW page: the break
			// replaces the leaf with a private writable copy and shoots the
			// shared translation down; the fault's own rewrite is identical.
			name: "cow-break-installed",
			setup: func(t *testing.T, mon *Monitor) world {
				asid, sb := forkedSandbox(t, mon)
				vas := sitePages(snapBase, 2)
				primeCore(t, mon, mon.M.Cores[1], asid, vas...)
				return world{mon.addrSpaces[asid], vas,
					func() error { return mon.EMCMapSandboxFault(mon.M.Cores[0], asid, vas[0], true) },
					func() map[paging.Addr]paging.PTE {
						return map[paging.Addr]paging.PTE{vas[0]: sb.confinedLeaf[vas[0]], vas[1]: sb.confinedLeaf[vas[1]]}
					}}
			},
			pteWrites: 2, tlbInvalid: 1, ipisSent: 1, cycles: 4402,
		},
		{
			// Seal revokes W on every installed page of the region.
			name: "seal",
			setup: func(t *testing.T, mon *Monitor) world {
				asid, sb, vas := commonSandbox(t, mon, 2, 0)
				as := mon.addrSpaces[asid]
				primeCore(t, mon, mon.M.Cores[1], asid, vas...)
				sealed := map[paging.Addr]paging.PTE{}
				for _, va := range vas {
					pte, _, _ := as.tables.Walk(va)
					sealed[va] = pte &^ paging.Writable
				}
				return world{as, vas,
					func() error { mon.sealCommons(mon.M.Cores[0], sb); return nil },
					func() map[paging.Addr]paging.PTE { return sealed }}
			},
			pteWrites: 2, tlbInvalid: 2, ipisSent: 1, cycles: 2722,
		},
		{
			// A dying fork drops its installed CoW leaves page by page.
			name: "cow-release",
			setup: func(t *testing.T, mon *Monitor) world {
				asid, sb := forkedSandbox(t, mon)
				primeCore(t, mon, mon.M.Cores[1], asid, sitePages(snapBase, 2)...)
				return world{mon.addrSpaces[asid], sitePages(snapBase, 2),
					func() error { mon.releaseCowLocked(sb); return nil }, nil}
			},
			pteWrites: 2, tlbInvalid: 2, ipisSent: 1, cycles: 2722,
		},
		{
			// Session end clears every declared page, installed or not, and
			// flushes the address space.
			name: "sandbox-end",
			setup: func(t *testing.T, mon *Monitor) world {
				asid, sb := coldSandbox(t, mon, 3, 2)
				primeCore(t, mon, mon.M.Cores[1], asid, sitePages(siteBase, 2)...)
				return world{mon.addrSpaces[asid], sitePages(siteBase, 3),
					func() error { return mon.EMCSandboxEnd(mon.M.Cores[0], sb.id) }, nil}
			},
			pteWrites: 3, tlbInvalid: 2, ipisSent: 1, cycles: 4715,
		},
		{
			// Snapshot unmaps the installed pages and flushes the address
			// space; the frames move to the template.
			name: "snapshot",
			setup: func(t *testing.T, mon *Monitor) world {
				asid, sb := coldSandbox(t, mon, 3, 2)
				primeCore(t, mon, mon.M.Cores[1], asid, sitePages(siteBase, 2)...)
				return world{mon.addrSpaces[asid], sitePages(siteBase, 3), func() error {
					_, err := mon.EMCSnapshotSandbox(mon.M.Cores[0], sb.id, "site")
					return err
				}, nil}
			},
			pteWrites: 2, tlbInvalid: 2, ipisSent: 1, cycles: 4738,
		},
		{
			// Destroying an address space clears every user leaf.
			name: "destroy-as",
			setup: func(t *testing.T, mon *Monitor) world {
				c := mon.M.Cores[0]
				owner := mem.OwnerTaskBase + 1
				asid, err := mon.EMCCreateAS(c, owner)
				if err != nil {
					t.Fatal(err)
				}
				vas := sitePages(siteBase, 3)
				for _, va := range vas {
					if err := mon.EMCMapUser(c, asid, va, mustAlloc(t, mon, owner), MapFlags{Writable: true}); err != nil {
						t.Fatal(err)
					}
				}
				primeCore(t, mon, mon.M.Cores[1], asid, vas[:2]...)
				return world{mon.addrSpaces[asid], vas, func() error { return mon.EMCDestroyAS(c, asid) }, nil}
			},
			pteWrites: 3, tlbInvalid: 2, ipisSent: 1, cycles: 3947,
		},
	}
	for _, s := range sites {
		t.Run(s.name, func(t *testing.T) {
			mon := bootedMonitorN(t, 2)
			w := s.setup(t, mon)
			mark := markOutcome(mon)
			if err := w.act(); err != nil {
				t.Fatal(err)
			}
			got := mark.outcome(mon, w.as, w.touched)
			want := txnOutcome{leaves: map[paging.Addr]paging.PTE{}, frames: map[paging.Addr]mem.Frame{},
				pteWrites: s.pteWrites, tlbInvalid: s.tlbInvalid, ipisSent: s.ipisSent, cycles: s.cycles}
			if w.want != nil {
				for va, leaf := range w.want() {
					want.leaves[va], want.frames[va] = leaf, leaf.Frame()
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("outcome changed:\ngot  %+v\nwant %+v", got, want)
			}
			if v := mon.RuntimeViolations(); len(v) != 0 {
				t.Fatalf("violations: %v", v)
			}
		})
	}
}

// TestSandboxFaultRewriteAllocs: re-faulting an installed sandbox page — an
// identical leaf rewrite through the transaction engine — allocates at most
// twice: the engine keeps a one-write transaction on the stack.
func TestSandboxFaultRewriteAllocs(t *testing.T) {
	mon := bootedMonitorN(t, 2)
	asid, _ := coldSandbox(t, mon, 1, 1)
	c := mon.M.Cores[0]
	allocs := testing.AllocsPerRun(100, func() {
		if err := mon.EMCMapSandboxFault(c, asid, siteBase, true); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("sandbox fault leaf rewrite allocates %.1f times, want <= 2", allocs)
	}
}

// TestSealCommonsDeterministic: sealing a sandbox that consumes two common
// regions walks them in name order, so the per-region shootdowns, their
// IPIs and every trace event land in the same sequence on every run.
func TestSealCommonsDeterministic(t *testing.T) {
	type ipiSeq struct {
		sent   uint64
		inval  []uint64
		events []trace.Event
	}
	run := func() ipiSeq {
		mon := bootedMonitorN(t, 2)
		// Unequal regions: the order of their shootdowns moves the IPI
		// timestamps.
		asid, sb, vas := commonSandbox(t, mon, 1, 3)
		primeCore(t, mon, mon.M.Cores[1], asid, vas...)
		mon.Rec = trace.New(0, mon.M.Clock.Now)
		sent := mon.M.IPIsSent
		mon.sealCommons(mon.M.Cores[0], sb)
		seq := ipiSeq{sent: mon.M.IPIsSent - sent, events: mon.Rec.Snapshot()}
		for _, c := range mon.M.Cores {
			seq.inval = append(seq.inval, c.TLBInvalidations)
		}
		return seq
	}
	first := run()
	if first.sent != 2 {
		t.Fatalf("seal of two regions sent %d IPIs, want 2 (one per region)", first.sent)
	}
	for i := 1; i < 20; i++ {
		if got := run(); !reflect.DeepEqual(got, first) {
			t.Fatalf("run %d: seal sequence differs:\ngot  %+v\nwant %+v", i, got, first)
		}
	}
}
