package monitor

import (
	"fmt"
	"strings"
	"testing"

	"github.com/asterisc-release/erebor-go/internal/abi"
	"github.com/asterisc-release/erebor-go/internal/cpu"
	"github.com/asterisc-release/erebor-go/internal/mem"
)

// The kernel is untrusted: a misconfigured one (no registered handlers)
// must never be able to take the monitor down. The gate records the
// violation, fails the event, and survives.
func TestUnregisteredSyscallEntryIsContained(t *testing.T) {
	mon := bootedMonitor(t)
	c := mon.M.Cores[0]

	c.Regs.GPR[cpu.RAX] = 42
	mon.intGate(c, &cpu.Trap{Vector: cpu.VecSyscall, FromRing: 0})

	if got := c.Regs.GPR[cpu.RAX]; got != abi.Errno(abi.ENOSYSNo) {
		t.Fatalf("RAX = %#x, want ENOSYS errno", got)
	}
	if mon.Stats.RuntimeViolations != 1 {
		t.Fatalf("RuntimeViolations = %d, want 1", mon.Stats.RuntimeViolations)
	}
	vs := mon.RuntimeViolations()
	if len(vs) != 1 || !strings.Contains(vs[0], "syscall") {
		t.Fatalf("violation log = %q", vs)
	}
}

func TestUnregisteredVectorIsContained(t *testing.T) {
	mon := bootedMonitor(t)
	c := mon.M.Cores[0]

	// A kernel-context #GP with no registered handler: dropped, recorded,
	// monitor keeps running.
	mon.intGate(c, &cpu.Trap{Vector: cpu.VecGP, FromRing: 0})
	if mon.Stats.RuntimeViolations != 1 {
		t.Fatalf("RuntimeViolations = %d, want 1", mon.Stats.RuntimeViolations)
	}
	// The monitor is still functional afterwards.
	if err := mon.EMCNop(c); err != nil {
		t.Fatalf("monitor wedged after contained violation: %v", err)
	}
}

// A sandbox exit the kernel cannot service kills the offending sandbox
// (scrubbed, typed reason) instead of panicking the platform.
func TestSandboxKilledOnUnhandleableTransition(t *testing.T) {
	mon := bootedMonitor(t)
	c := mon.M.Cores[0]

	asid, err := mon.EMCCreateAS(c, mem.OwnerTaskBase)
	if err != nil {
		t.Fatal(err)
	}
	id, err := mon.EMCCreateSandbox(c, asid, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := mon.EMCSwitchAS(c, asid); err != nil {
		t.Fatal(err)
	}

	// Ring-3 #GP from the sandbox's address space; the (misconfigured)
	// kernel registered no handler for it.
	mon.intGate(c, &cpu.Trap{Vector: cpu.VecGP, FromRing: 3})

	info, ok := mon.SandboxInfo(id)
	if !ok || !info.Destroyed {
		t.Fatalf("sandbox survived unhandleable transition: %+v", info)
	}
	if !strings.Contains(info.KillReason, "unhandleable transition") {
		t.Fatalf("kill reason = %q", info.KillReason)
	}
	if mon.Stats.RuntimeViolations == 0 {
		t.Fatal("no violation recorded")
	}
}

// A confined frame released behind the monitor's back makes the session-end
// teardown's own Free fail. That error must be recorded, once, naming the
// frame — never silently dropped.
func TestSandboxEndReportsTeardownError(t *testing.T) {
	mon, sb, frame := confinedSandbox(t)
	if err := mon.M.Phys.Free(frame); err != nil {
		t.Fatal(err)
	}
	if err := mon.EMCSandboxEnd(mon.M.Cores[0], sb); err != nil {
		t.Fatal(err)
	}
	vs := mon.RuntimeViolations()
	if len(vs) != 1 || !strings.Contains(vs[0], fmt.Sprintf("frame %d ", frame)) {
		t.Fatalf("violation log = %q, want one entry naming frame %d", vs, frame)
	}
	if mon.Stats.RuntimeViolations != 1 {
		t.Fatalf("RuntimeViolations = %d, want 1", mon.Stats.RuntimeViolations)
	}
}
