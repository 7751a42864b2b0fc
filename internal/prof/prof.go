// Package prof is the platform's deterministic cycle-exact profiler: a
// frame-stack attribution layer over the virtual clock that rolls every
// charged cycle up into a stack naming the mechanism that paid it.
//
// The machine's Clock.Charge is the only way virtual time advances, so the
// profiler attaches there (cpu.Machine.AttachProfiler) and observes every
// cycle exactly once. Each observation is attributed to the concatenation
// of three contexts live at charge time:
//
//	tenant:<t>;phase:<ph>;<frame>;<frame>;...
//
// where (tenant, phase) come from the metrics registry's attribution cursor,
// which the serving loop moves for per-phase cycle attribution (DESIGN.md
// §12), and
// the frames are an ambient mechanism stack pushed/popped by the layers
// that charge: cpu access/copy/trap-delivery/shootdowns, the monitor's EMC
// gates, ring drains and CoW breaks, kernel dispatch, fault handling and
// the net pump. A charge with no frames lands on the bare (tenant, phase)
// root — e.g. sandbox user compute.
//
// Design constraints (DESIGN.md §17):
//
//   - Zero clock charge: recording is pure Go-side bookkeeping; a profiled
//     run is cycle-identical (and report-byte-identical) to a bare run.
//   - Exact conservation: between Start and Stop, the sum of stack cycles
//     for (t, ph) equals the metrics registry's FamilyTenantPhaseCycles
//     delta for the same pair — both count the same Charge calls.
//   - Deterministic: exports traverse sorted orders, so identically-seeded
//     runs produce byte-identical folded text and pprof protobuf.
//   - Nil-safe: a nil *Profiler no-ops every method, so hook sites need no
//     guards.
package prof

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"

	"github.com/asterisc-release/erebor-go/internal/metrics"
)

// Key identifies one (tenant, phase) attribution bucket — the same pair
// FamilyTenantPhaseCycles is labeled with.
type Key = metrics.PhaseKey

// stackPrefix renders a bucket as the folded-stack prefix.
func stackPrefix(k Key) string {
	return "tenant:" + strconv.Itoa(k.Tenant) + ";phase:" + k.Phase
}

// Profiler accumulates cycles per (tenant, phase, frame stack). It
// implements cpu.Profiler. The mutex keeps exports race-clean against the
// single-threaded simulation goroutine; the hot path takes it briefly and
// never allocates on Observe (the live stack string is maintained
// incrementally by Enter/Exit).
type Profiler struct {
	mu     sync.Mutex
	met    *metrics.Registry
	active bool

	// stack is the live frame stack rendered as ";frame;frame..." (leading
	// separator included so prefix+stack concatenates cleanly); lens holds
	// the stack-string length before each push, for O(1) pops.
	stack string
	lens  []int

	samples map[Key]map[string]uint64
	dropped uint64
}

// New builds a profiler reading tenant/phase from the registry's
// attribution cursor (a nil registry parks every charge: see Observe).
// Recording starts disabled; call Start at the attribution window's
// opening edge.
func New(met *metrics.Registry) *Profiler {
	return &Profiler{met: met, samples: make(map[Key]map[string]uint64)}
}

// Enabled reports whether the profiler is live (hook-site convenience).
func (p *Profiler) Enabled() bool { return p != nil }

// Start opens the recording window. Pair it with the attribution cursor's
// opening move so conservation against metrics holds exactly.
func (p *Profiler) Start() {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.active = true
	p.mu.Unlock()
}

// Stop closes the recording window.
func (p *Profiler) Stop() {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.active = false
	p.mu.Unlock()
}

// Enter pushes a mechanism frame. Frames are pushed and popped even while
// recording is stopped, so the stack stays balanced across the Start edge.
func (p *Profiler) Enter(frame string) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.lens = append(p.lens, len(p.stack))
	p.stack += ";" + frame
	p.mu.Unlock()
}

// Exit pops the innermost frame.
func (p *Profiler) Exit() {
	if p == nil {
		return
	}
	p.mu.Lock()
	if n := len(p.lens); n > 0 {
		p.stack = p.stack[:p.lens[n-1]]
		p.lens = p.lens[:n-1]
	}
	p.mu.Unlock()
}

// Depth returns the live frame-stack depth (tests: balance checking).
func (p *Profiler) Depth() int {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.lens)
}

// Observe attributes n charged cycles to the live stack. Cycles charged
// while the attribution cursor is parked fall outside the serving
// window's conservation domain and are tallied in Dropped instead (zero in
// a well-formed run: the window opens on PhaseFleet and closes at the
// park).
func (p *Profiler) Observe(n uint64) {
	if p == nil || n == 0 {
		return
	}
	p.mu.Lock()
	if !p.active {
		p.mu.Unlock()
		return
	}
	ph := p.met.Phase()
	if ph == "" {
		p.dropped += n
		p.mu.Unlock()
		return
	}
	k := Key{Tenant: p.met.Tenant(), Phase: ph}
	m := p.samples[k]
	if m == nil {
		m = make(map[string]uint64)
		p.samples[k] = m
	}
	m[p.stack] += n
	p.mu.Unlock()
}

// Dropped returns the cycles observed outside any phase (see Observe).
func (p *Profiler) Dropped() uint64 {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.dropped
}

// Total returns the cycles attributed across every stack.
func (p *Profiler) Total() uint64 {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	var total uint64
	for _, m := range p.samples {
		for _, n := range m {
			total += n
		}
	}
	return total
}

// Totals returns the per-(tenant, phase) cycle totals — the figures that
// must equal the metrics registry's FamilyTenantPhaseCycles deltas over the
// recording window.
func (p *Profiler) Totals() map[Key]uint64 {
	out := make(map[Key]uint64)
	if p == nil {
		return out
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for k, m := range p.samples {
		var total uint64
		for _, n := range m {
			total += n
		}
		out[k] = total
	}
	return out
}

// Sample is one folded stack with its cycle total.
type Sample struct {
	Key    Key
	Stack  string // full folded stack: tenant:<t>;phase:<ph>[;frame...]
	Cycles uint64
}

// Samples returns every stack, sorted by folded-stack string — the
// deterministic export order shared by the folded and pprof writers.
func (p *Profiler) Samples() []Sample {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	out := make([]Sample, 0, len(p.samples))
	for k, m := range p.samples {
		prefix := stackPrefix(k)
		for stack, n := range m {
			out = append(out, Sample{Key: k, Stack: prefix + stack, Cycles: n})
		}
	}
	p.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Stack < out[j].Stack })
	return out
}

// Stacks returns the full folded stack→cycles map — the shape Top, Diff
// and the folded parser all speak.
func (p *Profiler) Stacks() map[string]uint64 {
	out := make(map[string]uint64)
	for _, s := range p.Samples() {
		out[s.Stack] = s.Cycles
	}
	return out
}

// WriteFolded writes the profile as folded-stack text (one
// "stack cycles" line per stack, sorted), the format flamegraph.pl and
// speedscope consume directly.
func (p *Profiler) WriteFolded(w io.Writer) error {
	for _, s := range p.Samples() {
		if _, err := fmt.Fprintf(w, "%s %d\n", s.Stack, s.Cycles); err != nil {
			return err
		}
	}
	return nil
}
