// Package metrics is the platform's telemetry sink: a deterministic
// registry of labeled counters, gauges and log2 latency histograms that the
// monitor, kernel, secure channel and serving path all write through.
//
// Design constraints (DESIGN.md §12):
//
//   - Never touches the virtual clock. Recording a sample is pure Go-side
//     bookkeeping; a metered run and an unmetered run of the same workload
//     observe identical cycle counts (the PR 2 guarantee extends to the
//     registry).
//   - Deterministic. Snapshots and exports traverse families and series in
//     sorted order, so two identically-seeded runs produce byte-identical
//     OpenMetrics output — the CI determinism gate diffs them directly.
//   - Nil-safe. The zero *Registry is a permanently disabled registry:
//     every method no-ops (reads return zero values), so optional plumbing
//     needs no guards at hook sites.
//   - Single sink. The registry replaces the ad-hoc counter maps that grew
//     inside monitor.Stats (EMCByKind, CyclesByKind) and trace.Recorder
//     (Counts): those surfaces now read back from a registry family.
//
// Histograms reuse the flight recorder's fixed log2 bucket scheme
// (trace.Histogram), so span latencies and registry latencies digest and
// export identically.
package metrics

import (
	"sort"
	"sync"

	"github.com/asterisc-release/erebor-go/internal/trace"
)

// Label is one key=value dimension of a series.
type Label struct {
	Key   string
	Value string
}

// KV builds a label.
func KV(key, value string) Label { return Label{Key: key, Value: value} }

// Kind is the metric family type.
type Kind uint8

// Family kinds (OpenMetrics types).
const (
	Counter Kind = iota
	Gauge
	HistogramKind
)

func (k Kind) String() string {
	switch k {
	case Counter:
		return "counter"
	case Gauge:
		return "gauge"
	case HistogramKind:
		return "histogram"
	}
	return "unknown"
}

// series is one labeled instrument inside a family.
type series struct {
	labels []Label
	value  uint64           // counter total or gauge level
	hist   *trace.Histogram // histogram families only
}

// family groups every series of one metric name.
type family struct {
	name   string
	help   string
	kind   Kind
	series map[string]*series
}

// Registry is the telemetry sink. The zero value of *Registry (nil) is a
// valid, permanently disabled registry.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	key      []byte // seriesKey scratch, guarded by mu
	cur      cursor // attribution cursor (attr.go), not guarded by mu
}

// New builds an empty registry with its attribution cursor parked.
func New() *Registry {
	return &Registry{families: make(map[string]*family), cur: cursor{at: PhaseKey{Tenant: NoTenant}}}
}

// Enabled reports whether the registry is live (hook-site convenience).
func (r *Registry) Enabled() bool { return r != nil }

// inlineLabels is how many labels a series lookup sorts on the stack;
// every hook site passes far fewer.
const inlineLabels = 8

// seriesKey sorts labels by key into sorted (the caller's stack array) and
// renders the canonical series key into the registry's scratch buffer. Keys
// join labels with '\xff' and each key to its value with '\xfe'; neither
// byte can appear in a well-formed label, so the key is unambiguous. Both
// results are valid only until the next call (r.mu held); getSeries copies
// them when it creates a series. The insertion sort is stable and label sets
// are tiny.
func (r *Registry) seriesKey(labels []Label, sorted *[inlineLabels]Label) ([]Label, []byte) {
	out := append(sorted[:0], labels...)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Key < out[j-1].Key; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	k := r.key[:0]
	for i, l := range out {
		if i > 0 {
			k = append(k, '\xff')
		}
		k = append(k, l.Key...)
		k = append(k, '\xfe')
		k = append(k, l.Value...)
	}
	r.key = k
	return out, k
}

// getSeries finds or creates the series for (name, labels). The first
// writer fixes the family kind; a later write of a different kind panics —
// in a deterministic simulation that is a wiring bug, never load-dependent.
// Finding an existing series allocates nothing.
func (r *Registry) getSeries(name string, kind Kind, labels []Label) *series {
	fam := r.families[name]
	if fam == nil {
		fam = &family{name: name, kind: kind, series: make(map[string]*series)}
		r.families[name] = fam
	}
	if fam.kind != kind {
		panic("metrics: family " + name + " is a " + fam.kind.String() +
			", written as " + kind.String())
	}
	var buf [inlineLabels]Label
	sorted, key := r.seriesKey(labels, &buf)
	s := fam.series[string(key)]
	if s == nil {
		s = &series{labels: append([]Label(nil), sorted...)}
		if kind == HistogramKind {
			s.hist = &trace.Histogram{}
		}
		fam.series[string(key)] = s
	}
	return s
}

// lookup returns the existing series for (name, labels), or nil. r.mu held.
func (r *Registry) lookup(name string, labels []Label) *series {
	fam := r.families[name]
	if fam == nil {
		return nil
	}
	var buf [inlineLabels]Label
	_, key := r.seriesKey(labels, &buf)
	return fam.series[string(key)]
}

// Describe attaches help text to a family (created lazily if unseen; the
// kind is fixed by the first sample written).
func (r *Registry) Describe(name, help string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if fam := r.families[name]; fam != nil {
		fam.help = help
		return
	}
	// Remember the help for when the family appears. Kind is provisional;
	// the first write fixes it.
	r.families[name] = &family{name: name, help: help, kind: Counter, series: make(map[string]*series)}
}

// Add increments a counter series by delta.
func (r *Registry) Add(name string, delta uint64, labels ...Label) {
	if r == nil || delta == 0 {
		return
	}
	r.mu.Lock()
	r.getSeries(name, Counter, labels).value += delta
	r.mu.Unlock()
}

// Inc increments a counter series by one.
func (r *Registry) Inc(name string, labels ...Label) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.getSeries(name, Counter, labels).value++
	r.mu.Unlock()
}

// Set sets a gauge series to v.
func (r *Registry) Set(name string, v uint64, labels ...Label) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.getSeries(name, Gauge, labels).value = v
	r.mu.Unlock()
}

// SetMax raises a gauge series to v if v exceeds its current level — the
// high-watermark idiom for bounded resources (ring depth, queue occupancy,
// trace-ring fill). Lower observations leave the gauge untouched, so the
// exported level is the maximum ever seen.
func (r *Registry) SetMax(name string, v uint64, labels ...Label) {
	if r == nil {
		return
	}
	r.mu.Lock()
	s := r.getSeries(name, Gauge, labels)
	if v > s.value {
		s.value = v
	}
	r.mu.Unlock()
}

// Observe adds one observation to a histogram series.
func (r *Registry) Observe(name string, v uint64, labels ...Label) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.getSeries(name, HistogramKind, labels).hist.Observe(v)
	r.mu.Unlock()
}

// ObserveEx adds one observation with an exemplar (a span/session ID
// retained in the observation's bucket; see trace.Histogram.ObserveEx).
// The SLO engine reads exemplars back to link a blown objective to the
// span tree that explains it.
func (r *Registry) ObserveEx(name string, v, exemplar uint64, labels ...Label) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.getSeries(name, HistogramKind, labels).hist.ObserveEx(v, exemplar)
	r.mu.Unlock()
}

// Value reads a counter or gauge series (0 when absent or disabled).
func (r *Registry) Value(name string, labels ...Label) uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if s := r.lookup(name, labels); s != nil {
		return s.value
	}
	return 0
}

// Hist reads a histogram series snapshot (zero Histogram when absent).
func (r *Registry) Hist(name string, labels ...Label) trace.Histogram {
	if r == nil {
		return trace.Histogram{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if s := r.lookup(name, labels); s != nil && s.hist != nil {
		return *s.hist
	}
	return trace.Histogram{}
}

// SeriesValue is one series of a family in a snapshot.
type SeriesValue struct {
	Labels []Label
	Value  uint64
	Hist   *trace.Histogram // histogram families only (copy)
}

// FamilySnapshot is one family in stable order.
type FamilySnapshot struct {
	Name   string
	Help   string
	Kind   Kind
	Series []SeriesValue
}

// Series snapshots every series of one family, sorted by canonical label
// string (nil when the family is absent or the registry disabled).
func (r *Registry) Series(name string) []SeriesValue {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	fam := r.families[name]
	if fam == nil {
		return nil
	}
	return snapshotFamily(fam).Series
}

func snapshotFamily(fam *family) FamilySnapshot {
	keys := make([]string, 0, len(fam.series))
	for k := range fam.series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := FamilySnapshot{Name: fam.name, Help: fam.help, Kind: fam.kind}
	for _, k := range keys {
		s := fam.series[k]
		sv := SeriesValue{Labels: append([]Label(nil), s.labels...), Value: s.value}
		if s.hist != nil {
			h := *s.hist
			sv.Hist = &h
		}
		out.Series = append(out.Series, sv)
	}
	return out
}

// Snapshot copies the whole registry in stable order: families sorted by
// name, series sorted by canonical label string. Families that were only
// Described (no samples) are omitted.
func (r *Registry) Snapshot() []FamilySnapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.families))
	for n, fam := range r.families {
		if len(fam.series) == 0 {
			continue
		}
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]FamilySnapshot, 0, len(names))
	for _, n := range names {
		out = append(out, snapshotFamily(r.families[n]))
	}
	return out
}

// CounterMap flattens a family into a map keyed by one label's value
// (legacy Stats-map compatibility: EMCByKind and friends read back through
// this). Series missing the label key are skipped.
func (r *Registry) CounterMap(name, labelKey string) map[string]uint64 {
	if r == nil {
		return nil
	}
	series := r.Series(name)
	if series == nil {
		return nil
	}
	out := make(map[string]uint64, len(series))
	for _, s := range series {
		for _, l := range s.Labels {
			if l.Key == labelKey {
				out[l.Value] += s.Value
				break
			}
		}
	}
	return out
}

// TraceEventsFamily is the registry family that mirrors the flight
// recorder's event tallies when a recorder is bound to the registry via
// trace.Recorder.SetCountStore.
const TraceEventsFamily = "erebor_trace_events"

// AddTraceCount implements trace.CountStore: recorder event tallies land in
// the TraceEventsFamily counter, labeled by kind and label.
func (r *Registry) AddTraceCount(kind, label string, delta uint64) {
	r.Add(TraceEventsFamily, delta, KV("kind", kind), KV("label", label))
}

// TraceCounts implements trace.CountStore: it reconstructs the recorder's
// "kind|label" tally map from the TraceEventsFamily series, so a
// registry-backed recorder's Counts (and therefore its Prometheus export)
// are byte-identical to a standalone recorder's.
func (r *Registry) TraceCounts() map[string]uint64 {
	if r == nil {
		return nil
	}
	series := r.Series(TraceEventsFamily)
	out := make(map[string]uint64, len(series))
	for _, s := range series {
		var kind, label string
		for _, l := range s.Labels {
			switch l.Key {
			case "kind":
				kind = l.Value
			case "label":
				label = l.Value
			}
		}
		key := kind
		if label != "" {
			key += "|" + label
		}
		out[key] = s.Value
	}
	return out
}

// TraceDroppedFamily is the registry family counting flight-recorder ring
// wraparound drops (surfacing trace.Recorder.Dropped at runtime, so event
// loss can't silently corrupt a critical-path analysis).
const TraceDroppedFamily = "erebor_trace_dropped_events"

// AddTraceDropped implements trace.DropStore: ring drops land in the
// TraceDroppedFamily counter.
func (r *Registry) AddTraceDropped(delta uint64) {
	r.Add(TraceDroppedFamily, delta)
}

// Reset discards every family and series (tests; world reuse).
func (r *Registry) Reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.families = make(map[string]*family)
}
