package metrics

import "testing"

// labelSets are the 0–3 label shapes hook sites pass, each listed unsorted.
var labelSets = [][]Label{
	nil,
	{KV("tenant", "3")},
	{KV("tenant", "3"), KV("phase", "compute")},
	{KV("tenant", "3"), KV("phase", "compute"), KV("kind", "mmu")},
}

func TestRegistryHitAllocatesNothing(t *testing.T) {
	for _, labels := range labelSets {
		r := New()
		ops := map[string]func(){
			"Inc":       func() { r.Inc("c", labels...) },
			"Add":       func() { r.Add("c", 2, labels...) },
			"Set":       func() { r.Set("g", 5, labels...) },
			"SetMax":    func() { r.SetMax("g", 9, labels...) },
			"Observe":   func() { r.Observe("h", 100, labels...) },
			"ObserveEx": func() { r.ObserveEx("h", 100, 7, labels...) },
			// The hook-site idiom: labels built inline as variadic arguments.
			"Inc(literal)": func() { r.Inc("lit", KV("kind", "mmu"), KV("tenant", "1"), KV("phase", "compute")) },
		}
		for name, op := range ops {
			op() // the first write creates the series
			if n := testing.AllocsPerRun(100, op); n != 0 {
				t.Errorf("%s with %d labels: %v allocs per hit, want 0", name, len(labels), n)
			}
		}
	}
}

// BenchmarkRegistryInc measures a counter hit with the serving path's
// typical three labels.
func BenchmarkRegistryInc(b *testing.B) {
	r := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Inc("emc", KV("kind", "mmu"), KV("tenant", "1"), KV("phase", "compute"))
	}
}
