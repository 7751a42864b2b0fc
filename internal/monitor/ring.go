package monitor

import (
	"github.com/asterisc-release/erebor-go/internal/costs"
	"github.com/asterisc-release/erebor-go/internal/cpu"
	"github.com/asterisc-release/erebor-go/internal/metrics"
	"github.com/asterisc-release/erebor-go/internal/trace"
)

// The async EMC submission ring: instead of paying one gate crossing (and
// one shootdown broadcast) per MMU request, the kernel enqueues independent
// map/unmap/protect/reclaim requests into a per-AS ring and the monitor
// drains the whole batch under a single EMCRingDrain gate as one MMU
// transaction (mmuTxn), with every leaf invalidation of the drained batch
// coalesced into one shootdown (at most one IPI per remote core per drain,
// versus one broadcast per leaf synchronously).

// DefaultRingEntries sizes a submission ring: large enough to swallow one
// 64-page mmap/munmap span (the lmbench pagefault working set) with room
// to spare.
const DefaultRingEntries = 128

// SubmitRing is the kernel-filled, monitor-drained request ring of one
// address space. The simulation models it as a slice FIFO: the kernel
// pushes entries (charging the submit cost at the call site) and the
// monitor consumes them atomically at drain time. A drain that fails —
// validation or commit — leaves the entries in place so the kernel can
// read them back and fall back to synchronous EMCs.
type SubmitRing struct {
	asid ASID
	cap  int
	reqs []RingReq
}

// NewSubmitRing builds a ring bound to one address space. capacity <= 0
// selects DefaultRingEntries.
func NewSubmitRing(asid ASID, capacity int) *SubmitRing {
	if capacity <= 0 {
		capacity = DefaultRingEntries
	}
	return &SubmitRing{asid: asid, cap: capacity}
}

// ASID returns the address space this ring submits against.
func (r *SubmitRing) ASID() ASID { return r.asid }

// Len returns the number of pending entries.
func (r *SubmitRing) Len() int { return len(r.reqs) }

// Cap returns the ring capacity.
func (r *SubmitRing) Cap() int { return r.cap }

// Push enqueues one request; false means the ring is full (the producer
// must drain first).
func (r *SubmitRing) Push(req RingReq) bool {
	if len(r.reqs) >= r.cap {
		return false
	}
	r.reqs = append(r.reqs, req)
	return true
}

// Pending returns a copy of the queued entries (kernel fallback path).
func (r *SubmitRing) Pending() []RingReq {
	out := make([]RingReq, len(r.reqs))
	copy(out, r.reqs)
	return out
}

// Reset discards every queued entry.
func (r *SubmitRing) Reset() { r.reqs = r.reqs[:0] }

// EMCRingDrain consumes every queued entry of ring under one gate crossing,
// as one MMU transaction (mmuTxn): a validation failure rejects the drain
// before any PTE is touched, a commit failure rolls the applied prefix back,
// and either way the ring keeps its entries for the kernel's synchronous
// fallback. On success every leaf invalidation of the batch coalesces into
// one shootdown (at most one IPI per remote core), the ring empties, and a
// watchdog sweep proves no invariant window opened between validate and
// flush.
func (mon *Monitor) EMCRingDrain(c *cpu.Core, ring *SubmitRing) error {
	return mon.gate(c, "ring", func() error {
		span := mon.Rec.Begin()
		defer func() {
			mon.Rec.EndSpan(span, trace.KindRingDrain, trace.TrackMonitor, "ring-drain")
		}()
		mon.M.ChargeIn("monitor/ring/drain", costs.EreborRingDrainBase+
			costs.EreborRingDrainEntry*uint64(ring.Len()))
		as, ok := mon.addrSpaces[ring.asid]
		if !ok {
			mon.Met.Inc(metrics.FamilyEMCRingDrains, metrics.KV("outcome", "rejected"))
			return denied("ring-drain", "unknown address space %d", ring.asid)
		}
		if ring.Len() == 0 {
			mon.Met.Inc(metrics.FamilyEMCRingDrains, metrics.KV("outcome", "committed"))
			return nil
		}
		writes, err := mon.validate(as, ring.reqs, ringOpName)
		if err != nil {
			mon.Met.Inc(metrics.FamilyEMCRingDrains, metrics.KV("outcome", "rejected"))
			return err
		}
		t := mmuTxn{mon: mon, c: c, as: as, writes: writes}
		if err := t.commit(); err != nil {
			return err
		}
		flushed, sent := t.flush()
		depth := uint64(ring.Len())
		opCount := [4]uint64{}
		for _, r := range ring.reqs {
			opCount[r.Op]++
		}
		ring.Reset()

		mon.Met.Observe(metrics.FamilyEMCRingDepth, depth)
		mon.Met.SetMax(metrics.FamilyHighWater, depth,
			metrics.KV("resource", metrics.ResourceEMCRingDepth))
		mon.Met.Inc(metrics.FamilyEMCRingDrains, metrics.KV("outcome", "committed"))
		for op, n := range opCount {
			if n > 0 {
				mon.Met.Add(metrics.FamilyEMCRingOps, n, metrics.KV("op", MMUOp(op).String()))
			}
		}
		mon.Met.Add(metrics.FamilyRingCoalescedIPIs, uint64(sent), metrics.KV("result", "sent"))
		if flushed > 0 {
			skipped := uint64(len(mon.M.Cores)-1) - uint64(sent)
			mon.Met.Add(metrics.FamilyRingCoalescedIPIs, skipped, metrics.KV("result", "skipped"))
		}
		// Drain-commit sweep: the batch's validate-to-flush window is closed;
		// every invariant must already hold again.
		mon.wdPhaseSweep(TriggerDrain)
		return nil
	})
}

// ringOpName labels the denials of a ring drain.
func ringOpName(op MMUOp) string { return "ring-" + op.String() }
