package harness

import (
	"crypto/rand"
	"io"
	"reflect"
	"strings"
	"testing"

	"github.com/asterisc-release/erebor-go/internal/entropy"
	"github.com/asterisc-release/erebor-go/internal/kernel"
	"github.com/asterisc-release/erebor-go/internal/secchan"
)

// countingReader counts the bytes drawn through it.
type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// handshakeToServerHello runs a session up to the point where the server
// hello is waiting on the client's transport.
func handshakeToServerHello(t *testing.T, w *World) *Session {
	t.Helper()
	c := launchUpper(t, w)
	s := NewSession(w)
	if err := s.Client.Start(); err != nil {
		t.Fatal(err)
	}
	s.Pump(2)
	if err := c.AcceptSession(s.MonTr); err != nil {
		t.Fatalf("AcceptSession: %v", err)
	}
	s.Pump(2)
	return s
}

// TestClientFinishPure: the client's verification reads no entropy —
// neither the world's seeded source nor the OS CSPRNG — charges no virtual
// cycles, and yields the same keys every time. Those are the properties
// that let it run off the simulation thread without perturbing a run.
func TestClientFinishPure(t *testing.T) {
	ent := &countingReader{r: entropy.New(3)}
	w, err := NewWorld(WorldConfig{Mode: kernel.ModeErebor, MemMB: 64, Entropy: ent})
	if err != nil {
		t.Fatal(err)
	}
	s := handshakeToServerHello(t, w)
	frame, err := s.Client.tr.Recv()
	if err != nil {
		t.Fatal(err)
	}
	sh, err := secchan.DecodeServerHello(frame)
	if err != nil {
		t.Fatal(err)
	}
	osRand := &countingReader{r: rand.Reader}
	rand.Reader = osRand
	defer func() { rand.Reader = osRand.r }()
	drawn, clock := ent.n, w.M.Clock.Now()
	if drawn == 0 {
		t.Fatal("the handshake drew nothing from the world's entropy source")
	}

	cl := s.Client
	k1, err := secchan.ClientFinish(cl.hello, cl.priv, sh, cl.quotingPub, &cl.expected)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := secchan.ClientFinish(cl.hello, cl.priv, sh, cl.quotingPub, &cl.expected)
	if err != nil {
		t.Fatal(err)
	}
	if osRand.n != 0 || ent.n != drawn {
		t.Fatalf("ClientFinish drew entropy: %d OS bytes, %d seeded bytes", osRand.n, ent.n-drawn)
	}
	if now := w.M.Clock.Now(); now != clock {
		t.Fatalf("ClientFinish charged %d virtual cycles", now-clock)
	}
	if !reflect.DeepEqual(k1, k2) {
		t.Fatal("ClientFinish derived different keys from the same inputs")
	}
}

// TestSendRefusedUntilVerdict: between BeginFinish and AwaitFinish the
// client has no record connection, so nothing it sends can leave before
// the quote is verified; once the verdict is in, the session works.
func TestSendRefusedUntilVerdict(t *testing.T) {
	w, err := NewWorld(WorldConfig{Mode: kernel.ModeErebor, MemMB: 64})
	if err != nil {
		t.Fatal(err)
	}
	s := handshakeToServerHello(t, w)
	if err := s.Client.BeginFinish(); err != nil {
		t.Fatal(err)
	}
	if !s.Client.Verifying() {
		t.Fatal("no verification in flight after BeginFinish")
	}
	if err := s.Client.Send([]byte("too early")); err == nil || !strings.Contains(err.Error(), "handshake not finished") {
		t.Fatalf("Send before the verdict: %v, want handshake not finished", err)
	}
	if err := s.Client.BeginFinish(); err == nil {
		t.Fatal("a second BeginFinish started while a verdict was in flight")
	}
	if err := s.Client.AwaitFinish(); err != nil {
		t.Fatalf("AwaitFinish: %v", err)
	}
	if s.Client.Verifying() {
		t.Fatal("verification still in flight after AwaitFinish")
	}
	if err := s.Client.AwaitFinish(); err == nil {
		t.Fatal("AwaitFinish joined a verdict that was never started")
	}
	if err := s.Client.Send([]byte("now")); err != nil {
		t.Fatal(err)
	}
	s.Pump(2)
	w.K.Schedule()
	s.Pump(2)
	got, err := s.Client.Recv()
	if err != nil || string(got) != "NOW" {
		t.Fatalf("reply %q, %v; want NOW", got, err)
	}
}
