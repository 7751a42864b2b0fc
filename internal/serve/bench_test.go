package serve

import "testing"

// BenchmarkServeChurn is the host cost of the churn serving shape: 16
// slots, 1 KiB requests, warm pool, egress on, two simulated cores. One op
// is one Run of 64 sessions; server boot is excluded. Run it with -cpu 1,2
// to see what overlapping the client's quote verification buys and that
// it costs nothing on one core.
func BenchmarkServeChurn(b *testing.B) {
	const slots, sessions = 16, 64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s, err := New(Config{Tenants: slots, Sessions: sessions, Seed: int64(i), VCPUs: 2,
			Egress: DefaultEgressSpec()})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		rep, err := s.Run()
		if err != nil {
			b.Fatal(err)
		}
		if rep.Completed != sessions {
			b.Fatalf("completed=%d failed=%d, want %d/0", rep.Completed, rep.Failed, sessions)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*sessions), "us/session")
}
