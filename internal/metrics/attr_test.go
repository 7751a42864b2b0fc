package metrics

import "testing"

func TestAttributionCursor(t *testing.T) {
	t.Run("move flushes to the pair left", func(t *testing.T) {
		r := New()
		r.MoveCursor(3, PhaseCompute, 100, 10)
		if r.Tenant() != 3 || r.Phase() != PhaseCompute {
			t.Fatalf("cursor at (%d, %q), want (3, %q)", r.Tenant(), r.Phase(), PhaseCompute)
		}
		if d := r.MoveCursor(NoTenant, PhaseFleet, 250, 40); d != 150 {
			t.Fatalf("flushed %d cycles, want 150", d)
		}
		if v := r.Value(FamilyTenantPhaseCycles, KV("tenant", "3"), KV("phase", PhaseCompute)); v != 150 {
			t.Fatalf("(3, compute) holds %d cycles, want 150", v)
		}
		if v := r.Value(FamilyShootdownCycles, KV("tenant", "3")); v != 30 {
			t.Fatalf("tenant 3 holds %d shootdown cycles, want 30", v)
		}
		cycles, shootdown := r.Attribution()
		if len(cycles) != 1 || cycles[PhaseKey{Tenant: 3, Phase: PhaseCompute}] != 150 ||
			len(shootdown) != 1 || shootdown[3] != 30 {
			t.Fatalf("Attribution() = %v, %v", cycles, shootdown)
		}
	})
	t.Run("zero-delta move creates no series", func(t *testing.T) {
		r := New()
		r.MoveCursor(2, PhaseInstall, 500, 7)
		if d := r.MoveCursor(2, PhaseCompute, 500, 7); d != 0 {
			t.Fatalf("flushed %d cycles, want 0", d)
		}
		if s := r.Snapshot(); len(s) != 0 {
			t.Fatalf("zero-delta move created %v", s)
		}
	})
	t.Run("parked cursor accumulates nothing", func(t *testing.T) {
		r := New()
		if r.Tenant() != NoTenant || r.Phase() != "" {
			t.Fatalf("new cursor at (%d, %q), want parked", r.Tenant(), r.Phase())
		}
		r.MoveCursor(1, PhaseOutput, 0, 0)
		r.MoveCursor(NoTenant, "", 40, 4)
		if d := r.MoveCursor(1, PhaseOutput, 9000, 900); d != 0 {
			t.Fatalf("move off a parked cursor flushed %d cycles", d)
		}
		cycles, shootdown := r.Attribution()
		if len(cycles) != 1 || cycles[PhaseKey{Tenant: 1, Phase: PhaseOutput}] != 40 ||
			len(shootdown) != 1 || shootdown[1] != 4 {
			t.Fatalf("parked span leaked into Attribution() = %v, %v", cycles, shootdown)
		}
	})
	t.Run("nil registry no-ops", func(t *testing.T) {
		var r *Registry
		if d := r.MoveCursor(1, PhaseCompute, 10, 1); d != 0 {
			t.Fatalf("nil registry flushed %d cycles", d)
		}
		r.MoveCursor(NoTenant, "", 20, 2)
		if r.Tenant() != NoTenant || r.Phase() != "" {
			t.Fatalf("nil registry cursor at (%d, %q)", r.Tenant(), r.Phase())
		}
		if cycles, shootdown := r.Attribution(); len(cycles) != 0 || len(shootdown) != 0 {
			t.Fatalf("nil registry Attribution() = %v, %v", cycles, shootdown)
		}
	})
}
