package metrics

import (
	"fmt"
	"strings"
	"testing"

	"github.com/asterisc-release/erebor-go/internal/trace"
)

func TestNilRegistryIsSafe(t *testing.T) {
	var r *Registry
	r.Inc("c")
	r.Add("c", 5, KV("k", "v"))
	r.Set("g", 7)
	r.Observe("h", 100)
	r.Describe("c", "help")
	r.Reset()
	if r.Enabled() {
		t.Fatal("nil registry reports enabled")
	}
	if v := r.Value("c"); v != 0 {
		t.Fatalf("nil Value = %d", v)
	}
	if h := r.Hist("h"); h.Count != 0 {
		t.Fatalf("nil Hist count = %d", h.Count)
	}
	if s := r.Snapshot(); s != nil {
		t.Fatalf("nil Snapshot = %v", s)
	}
	if s := r.Series("c"); s != nil {
		t.Fatalf("nil Series = %v", s)
	}
	if m := r.CounterMap("c", "k"); m != nil {
		t.Fatalf("nil CounterMap = %v", m)
	}
	var sb strings.Builder
	if err := r.ExportOpenMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	if sb.String() != "# EOF\n" {
		t.Fatalf("nil export = %q", sb.String())
	}
}

func TestCounterGaugeHistogramOps(t *testing.T) {
	r := New()
	r.Inc("emc", KV("kind", "mmu"))
	r.Add("emc", 4, KV("kind", "mmu"))
	r.Add("emc", 2, KV("kind", "io"))
	r.Add("emc", 0, KV("kind", "never")) // zero delta must not create a series
	r.Set("slots", 8)
	r.Set("slots", 3)
	r.Observe("lat", 100, KV("phase", "compute"))
	r.Observe("lat", 300, KV("phase", "compute"))

	if v := r.Value("emc", KV("kind", "mmu")); v != 5 {
		t.Fatalf("emc{kind=mmu} = %d, want 5", v)
	}
	if v := r.Value("emc", KV("kind", "io")); v != 2 {
		t.Fatalf("emc{kind=io} = %d, want 2", v)
	}
	if v := r.Value("emc", KV("kind", "never")); v != 0 {
		t.Fatalf("emc{kind=never} = %d, want 0", v)
	}
	if len(r.Series("emc")) != 2 {
		t.Fatalf("emc series = %d, want 2 (zero-delta Add must not materialize)", len(r.Series("emc")))
	}
	if v := r.Value("slots"); v != 3 {
		t.Fatalf("slots = %d, want 3 (gauge overwrite)", v)
	}
	h := r.Hist("lat", KV("phase", "compute"))
	if h.Count != 2 || h.Sum != 400 || h.Min != 100 || h.Max != 300 {
		t.Fatalf("hist = %+v", h)
	}
}

func TestLabelOrderInsensitive(t *testing.T) {
	r := New()
	r.Inc("x", KV("a", "1"), KV("b", "2"))
	r.Inc("x", KV("b", "2"), KV("a", "1"))
	if v := r.Value("x", KV("b", "2"), KV("a", "1")); v != 2 {
		t.Fatalf("label-permuted writes split series: %d", v)
	}
	if n := len(r.Series("x")); n != 1 {
		t.Fatalf("series count = %d, want 1", n)
	}

	// Every permutation of three labels, through every write kind and
	// both readers, lands on one series that stores its labels sorted.
	base := []Label{KV("a", "1"), KV("b", "2"), KV("c", "3")}
	perms := [][]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
	r = New()
	for _, p := range perms {
		ls := []Label{base[p[0]], base[p[1]], base[p[2]]}
		r.Inc("c", ls...)
		r.Set("g", uint64(p[0]+1), ls...)
		r.Observe("h", 10, ls...)
	}
	for _, name := range []string{"c", "g", "h"} {
		s := r.Series(name)
		if len(s) != 1 {
			t.Fatalf("%s: %d series from one label set, want 1", name, len(s))
		}
		if got := fmt.Sprint(s[0].Labels); got != fmt.Sprint(base) {
			t.Fatalf("%s: stored labels %s, want sorted %s", name, got, fmt.Sprint(base))
		}
	}
	for _, p := range perms {
		ls := []Label{base[p[0]], base[p[1]], base[p[2]]}
		if v := r.Value("c", ls...); v != uint64(len(perms)) {
			t.Fatalf("Value%v = %d, want %d", ls, v, len(perms))
		}
		if h := r.Hist("h", ls...); h.Count != uint64(len(perms)) {
			t.Fatalf("Hist%v count = %d, want %d", ls, h.Count, len(perms))
		}
	}
}

func TestSnapshotStableOrderAndIsolation(t *testing.T) {
	// Two registries written in different interleavings must snapshot and
	// export identically.
	fill := func(order []int) *Registry {
		r := New()
		ops := []func(){
			func() { r.Add("zeta", 1, KV("t", "9")) },
			func() { r.Add("alpha", 3, KV("t", "2"), KV("p", "x")) },
			func() { r.Add("alpha", 1, KV("t", "10"), KV("p", "x")) },
			func() { r.Set("gauge", 4) },
			func() { r.Observe("hist", 17, KV("t", "1")) },
		}
		for _, i := range order {
			ops[i]()
		}
		return r
	}
	a := fill([]int{0, 1, 2, 3, 4})
	b := fill([]int{4, 3, 2, 1, 0})
	var sa, sb strings.Builder
	if err := a.ExportOpenMetrics(&sa); err != nil {
		t.Fatal(err)
	}
	if err := b.ExportOpenMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	if sa.String() != sb.String() {
		t.Fatalf("interleaving-dependent export:\n--- a ---\n%s--- b ---\n%s", sa.String(), sb.String())
	}

	// Snapshot must be a copy: mutating the registry after snapshot must not
	// alias.
	snap := a.Snapshot()
	a.Add("zeta", 100, KV("t", "9"))
	for _, fam := range snap {
		if fam.Name == "zeta" && fam.Series[0].Value != 1 {
			t.Fatalf("snapshot aliases live registry: %d", fam.Series[0].Value)
		}
	}
}

func TestExportOpenMetricsFormat(t *testing.T) {
	r := New()
	r.Describe("emc", "EMC gate entries.")
	r.Add("emc", 7, KV("kind", "mmu"))
	r.Set("pool", 3, KV("state", "warm"))
	r.Observe("lat", 5, KV("phase", "compute"))
	var sb strings.Builder
	if err := r.ExportOpenMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE emc counter\n",
		"# HELP emc EMC gate entries.\n",
		`emc_total{kind="mmu"} 7` + "\n",
		"# TYPE pool gauge\n",
		`pool{state="warm"} 3` + "\n",
		"# TYPE lat histogram\n",
		`lat_bucket{phase="compute",le="7"} 1` + "\n",
		`lat_bucket{phase="compute",le="+Inf"} 1` + "\n",
		`lat_sum{phase="compute"} 5` + "\n",
		`lat_count{phase="compute"} 1` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("export missing %q\n%s", want, out)
		}
	}
	if !strings.HasSuffix(out, "# EOF\n") {
		t.Fatalf("export not terminated with # EOF:\n%s", out)
	}
}

func TestExportLabelEscaping(t *testing.T) {
	r := New()
	r.Inc("m", KV("l", `quote"back\slash`+"\nnewline"))
	var sb strings.Builder
	if err := r.ExportOpenMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	want := `m_total{l="quote\"back\\slash\nnewline"} 1` + "\n"
	if !strings.Contains(sb.String(), want) {
		t.Fatalf("escaping wrong:\n%s\nwant line %q", sb.String(), want)
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := New()
	r.Inc("m")
	defer func() {
		if recover() == nil {
			t.Fatal("writing a counter family as a gauge did not panic")
		}
	}()
	r.Set("m", 1)
}

func TestCounterMap(t *testing.T) {
	r := New()
	r.Add("emc", 5, KV("kind", "mmu"))
	r.Add("emc", 2, KV("kind", "io"))
	r.Set("other", 9)
	m := r.CounterMap("emc", "kind")
	if len(m) != 2 || m["mmu"] != 5 || m["io"] != 2 {
		t.Fatalf("CounterMap = %v", m)
	}
	if m := r.CounterMap("absent", "kind"); m != nil {
		t.Fatalf("absent CounterMap = %v", m)
	}
}

func TestDescribeAfterWrite(t *testing.T) {
	r := New()
	r.Set("g", 1)
	r.Describe("g", "a gauge")
	var sb strings.Builder
	if err := r.ExportOpenMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "# TYPE g gauge\n# HELP g a gauge\n") {
		t.Fatalf("Describe after write lost kind or help:\n%s", sb.String())
	}
}

func TestDescribedButUnwrittenFamilyOmitted(t *testing.T) {
	r := New()
	r.Describe("ghost", "never written")
	var sb strings.Builder
	if err := r.ExportOpenMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "ghost") {
		t.Fatalf("described-only family exported:\n%s", sb.String())
	}
	if len(r.Snapshot()) != 0 {
		t.Fatal("described-only family in snapshot")
	}
}

func TestRegistryAsCountStore(t *testing.T) {
	var _ trace.CountStore = (*Registry)(nil)
	r := New()
	r.AddTraceCount("emc", "emc/mmu", 3)
	r.AddTraceCount("frame-send", "", 2)
	m := r.TraceCounts()
	if m["emc|emc/mmu"] != 3 || m["frame-send"] != 2 {
		t.Fatalf("TraceCounts = %v", m)
	}
	if v := r.Value(TraceEventsFamily, KV("kind", "emc"), KV("label", "emc/mmu")); v != 3 {
		t.Fatalf("registry family value = %d", v)
	}
	var nilReg *Registry
	if m := nilReg.TraceCounts(); m != nil {
		t.Fatalf("nil TraceCounts = %v", m)
	}
}

func TestResetClears(t *testing.T) {
	r := New()
	r.Inc("c")
	r.Reset()
	if v := r.Value("c"); v != 0 {
		t.Fatalf("post-reset Value = %d", v)
	}
	if len(r.Snapshot()) != 0 {
		t.Fatal("post-reset snapshot non-empty")
	}
}
