package serve

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/asterisc-release/erebor-go/internal/attest"
	"github.com/asterisc-release/erebor-go/internal/entropy"
	"github.com/asterisc-release/erebor-go/internal/secchan"
)

// rebindClients points every session the server admits from now on at a
// quoting public key the monitor does not sign with, and re-admits the
// slots New already bound, so every quote the fleet sees fails
// verification.
func rebindClients(t *testing.T, s *Server) {
	t.Helper()
	wrong, err := attest.NewQuotingKeyRand(entropy.New(99))
	if err != nil {
		t.Fatal(err)
	}
	s.w.QK = wrong
	for _, sl := range s.slots {
		s.admit(sl)
	}
}

// waitGoroutines polls until the goroutine count is back to base: a
// verification goroutine exits right after handing over its verdict.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	for i := 0; runtime.NumGoroutine() > base; i++ {
		if i == 200 {
			t.Fatalf("%d goroutines still running, want %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServeVerdictBeforeData: with every quote failing verification, each
// session retries on the unchanged schedule — one attempt per round, the
// backoff doubling from its base — and fails typed after MaxAttempts,
// while nothing but handshake frames ever crosses its proxy. A client
// whose verdict is still in flight refuses to send.
func TestServeVerdictBeforeData(t *testing.T) {
	const tenants, sessions = 4, 8
	s, err := New(Config{Tenants: tenants, Sessions: sessions, Seed: 5, VCPUs: 2})
	if err != nil {
		t.Fatal(err)
	}
	rebindClients(t, s)
	pol := s.pol

	type step struct{ round, attempts int }
	steps := make(map[int][]step) // tenant -> attempts seen at round starts
	proxies := make(map[*secchan.Proxy]int)
	refusals := 0
	s.Hook = func(round int) {
		for _, sl := range s.slots {
			if sl.done {
				continue
			}
			proxies[sl.sess.Proxy] = sl.tenant
			steps[sl.tenant] = append(steps[sl.tenant], step{round, sl.attempts})
			if sl.attempts > 0 {
				want := pol.BackoffBase
				for i := 1; i < sl.attempts; i++ {
					want *= pol.BackoffFactor
				}
				if sl.backoff != want {
					t.Errorf("tenant %d after attempt %d: backoff %d, want %d",
						sl.tenant, sl.attempts, sl.backoff, want)
				}
			}
			if sl.sess.Client.Verifying() {
				err := sl.sess.Client.Send([]byte("early"))
				if err == nil || !strings.Contains(err.Error(), "handshake not finished") {
					t.Fatalf("Send with the verdict in flight: %v", err)
				}
				refusals++
			}
		}
	}
	rep, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != 0 || rep.Failed != sessions {
		t.Fatalf("completed=%d failed=%d, want 0/%d", rep.Completed, rep.Failed, sessions)
	}
	for _, r := range rep.Results {
		if !strings.Contains(r.Err, "handshake failed after 8 attempts") ||
			!strings.Contains(r.Err, "quote signature invalid") || !typedErr(r.Err) {
			t.Fatalf("tenant %d: %q, want a typed handshake failure on the quote", r.Tenant, r.Err)
		}
	}
	if refusals == 0 {
		t.Fatal("no round started with a verdict in flight")
	}
	// One attempt per round: the rejected verdict is joined at the start of
	// the slot's next step, exactly where a synchronous failure retried.
	for tenant, ss := range steps {
		var prev step
		for _, st := range ss {
			if st.attempts > 1 && (st.attempts != prev.attempts+1 || st.round != prev.round+1) {
				t.Fatalf("tenant %d: attempt %d at round %d follows attempt %d at round %d",
					tenant, st.attempts, st.round, prev.attempts, prev.round)
			}
			prev = st
		}
		if prev.attempts != pol.MaxAttempts {
			t.Fatalf("tenant %d: last round began after attempt %d, want %d", tenant, prev.attempts, pol.MaxAttempts)
		}
	}
	// Every frame that crossed a proxy is a client hello or a server hello:
	// one of each per attempt, and never a record.
	if len(proxies) != sessions {
		t.Fatalf("observed %d session proxies, want %d", len(proxies), sessions)
	}
	for pr, tenant := range proxies {
		if len(pr.Seen) != 2*pol.MaxAttempts {
			t.Fatalf("tenant %d: %d frames crossed the proxy, want %d hellos", tenant, len(pr.Seen), 2*pol.MaxAttempts)
		}
		for i, f := range pr.Seen {
			if i%2 == 0 {
				if h, err := secchan.DecodeHello(f); err != nil || len(h.Nonce) != 32 {
					t.Fatalf("tenant %d frame %d is not a client hello: %v", tenant, i, err)
				}
			} else if sh, err := secchan.DecodeServerHello(f); err != nil || sh.Quote == nil {
				t.Fatalf("tenant %d frame %d is not a server hello: %v", tenant, i, err)
			}
		}
	}
}

// TestServeStallJoinsVerdict: a 64-slot fleet where one slot is still
// mid-handshake when the round budget runs out. The stall fails it typed,
// and Run returns with no verification in flight and no goroutine left.
func TestServeStallJoinsVerdict(t *testing.T) {
	const tenants = 64
	base := runtime.NumGoroutine()
	s, err := New(Config{Tenants: tenants, Sessions: tenants, Seed: 13, VCPUs: 2})
	if err != nil {
		t.Fatal(err)
	}
	budget := s.roundBudget()
	victim := s.slots[tenants/2]
	var seenAtStall int
	s.Hook = func(round int) {
		switch {
		case round == budget:
			// Restart the handshake in the very round the budget ends: the
			// stall check fails the slot with its verdict still pending.
			victim.state, victim.attempts = stConnect, 1
			seenAtStall = len(victim.sess.Proxy.Seen)
		case victim.state == stWait:
			// Hold the slot cheaply: its request never reaches the worker,
			// and its receive budget and backoff never run out.
			victim.sess.DrainAll()
			victim.waitN, victim.backoff = 0, s.pol.BackoffBase
		}
	}
	rep, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != tenants-1 || rep.Failed != 1 {
		t.Fatalf("completed=%d failed=%d, want %d/1", rep.Completed, rep.Failed, tenants-1)
	}
	if msg := rep.Results[victim.tenant].Err; !strings.Contains(msg, "stalled after") ||
		!strings.Contains(msg, secchan.ErrTimeout.Error()) {
		t.Fatalf("victim: %q, want a typed stall", msg)
	}
	// The last attempt got as far as starting its verification: both hellos
	// crossed, and the slot was failed before a step could consume the
	// verdict and move it past stSend.
	if got := len(victim.sess.Proxy.Seen) - seenAtStall; got != 2 || victim.state != stSend {
		t.Fatalf("final attempt: %d frames, state %d; want 2 hellos and a pending verdict", got, victim.state)
	}
	if n := s.verifying(); n != 0 {
		t.Fatalf("%d verifications still in flight after Run", n)
	}
	waitGoroutines(t, base)
}

// verifying counts the slots whose client has a verdict in flight.
func (s *Server) verifying() int {
	n := 0
	for _, sl := range s.slots {
		if sl.sess != nil && sl.sess.Client.Verifying() {
			n++
		}
	}
	return n
}

// TestServeTeardownErrorFailsSlot: when destroying a slot's carcass fails
// at turnover, the slot's remaining tenants fail with the typed teardown
// error instead of the error being dropped.
func TestServeTeardownErrorFailsSlot(t *testing.T) {
	s, err := New(Config{Tenants: 2, Sessions: 4, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	victim, killed := s.slots[0], false
	s.Hook = func(int) {
		if killed || victim.state != stWait {
			return
		}
		// Kill the worker mid-request and destroy its address space behind
		// the server's back: the turnover's own destroy then fails.
		killed = true
		asid := victim.c.Task.P.AS.ASID
		s.w.K.KillTask(victim.c.Task, 137, "test: killed mid-request")
		if err := s.w.Mon.EMCDestroyAS(s.w.Core(), asid); err != nil {
			t.Fatalf("pre-destroying the address space: %v", err)
		}
	}
	rep, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != 2 || rep.Failed != 2 {
		t.Fatalf("completed=%d failed=%d, want 2/2", rep.Completed, rep.Failed)
	}
	errs := make([]string, len(rep.Results))
	for i, r := range rep.Results {
		errs[i] = r.Err
	}
	// Results are sorted by tenant; slot 0 serves tenants 0 and 2.
	if !strings.Contains(errs[0], ErrWorkerDead.Error()) {
		t.Fatalf("killed session: %q, want %v", errs[0], ErrWorkerDead)
	}
	if !strings.HasPrefix(errs[2], ErrTeardown.Error()+": ") {
		t.Fatalf("tenant 2: %q, want %v", errs[2], ErrTeardown)
	}
	if errs[1] != "" || errs[3] != "" {
		t.Fatalf("slot 1 tenants failed: %q, %q", errs[1], errs[3])
	}
}
