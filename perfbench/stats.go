package main

import (
	"sort"
	"time"
)

// median returns the middle value of xs (mean of the two middle values for
// an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of xs.
func percentile(xs []uint64, q float64) uint64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]uint64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := int(q*float64(len(s))+0.999999999) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(s) {
		rank = len(s) - 1
	}
	return s[rank]
}

// span is one timed benchmark-side interval around a call into the
// program (serve.New, Server.Run, harness.RunScenario).
type span struct {
	name string
	dur  time.Duration
}

// spanLog keeps the benchmark's own spans in memory; the traced run writes
// a per-name summary to stderr when it ends.
type spanLog struct {
	spans []span
}

// time runs fn and records its wall time under name.
func (l *spanLog) time(name string, fn func()) time.Duration {
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	l.spans = append(l.spans, span{name, d})
	return d
}

// summary returns per-name (count, total) in first-seen order.
func (l *spanLog) summary() (names []string, count map[string]int, total map[string]time.Duration) {
	count = make(map[string]int)
	total = make(map[string]time.Duration)
	for _, s := range l.spans {
		if count[s.name] == 0 {
			names = append(names, s.name)
		}
		count[s.name]++
		total[s.name] += s.dur
	}
	return names, count, total
}
