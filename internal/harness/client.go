package harness

import (
	"crypto/ecdh"
	"crypto/ecdsa"
	"errors"
	"fmt"
	"io"

	"github.com/asterisc-release/erebor-go/internal/faultinject"
	"github.com/asterisc-release/erebor-go/internal/metrics"
	"github.com/asterisc-release/erebor-go/internal/secchan"
	"github.com/asterisc-release/erebor-go/internal/tdx"
	"github.com/asterisc-release/erebor-go/internal/trace"
)

// Client is a remote client of an Erebor service: it attests the monitor,
// derives channel keys, and exchanges padded encrypted records. Everything
// between the client and the monitor (proxy, host network) sees ciphertext
// only.
type Client struct {
	tr         secchan.Transport
	quotingPub *ecdsa.PublicKey
	expected   [tdx.MeasurementSize]byte

	hello *secchan.ClientHello
	priv  *ecdh.PrivateKey
	conn  *secchan.Reliable
	// pending carries the in-flight verdict between BeginFinish and
	// AwaitFinish (nil when none is in flight).
	pending chan verdict

	// Rec, when non-nil, is wired onto the record connection once the
	// handshake finishes (frame events on the client track).
	Rec *trace.Recorder

	// Met mirrors Rec for the telemetry registry: frame tallies labeled
	// with the tenant its attribution cursor names (optional, wired by the
	// harness).
	Met *metrics.Registry

	// Rand, when non-nil, replaces the OS CSPRNG for the client's ephemeral
	// handshake key and nonce (wired from World.Entropy on seeded worlds).
	Rand io.Reader
}

// ExpectedMRTD recomputes the boot measurement a client expects: firmware
// plus the (open-source) monitor image. An impostor cannot produce this
// measurement without actually booting the real monitor first.
func ExpectedMRTD(monitorImage []byte) [tdx.MeasurementSize]byte {
	scratch := tdx.NewModule(nil, nil)
	scratch.MeasureBoot("firmware", firmware)
	scratch.MeasureBoot("erebor-monitor", monitorImage)
	return scratch.MRTD()
}

// NewClient binds a client to a transport and the hardware vendor's
// quoting public key.
func NewClient(tr secchan.Transport, quotingPub *ecdsa.PublicKey, expectedMRTD [tdx.MeasurementSize]byte) *Client {
	return &Client{tr: tr, quotingPub: quotingPub, expected: expectedMRTD}
}

// Start sends the client hello.
func (cl *Client) Start() error {
	hello, priv, err := secchan.NewClientHelloRand(cl.Rand)
	if err != nil {
		return err
	}
	cl.hello, cl.priv = hello, priv
	frame, err := secchan.EncodeHello(hello)
	if err != nil {
		return err
	}
	return cl.tr.Send(frame)
}

// Finish consumes the server hello, verifies the quote (signature, MRTD,
// handshake binding) and derives the record keys: BeginFinish followed by
// AwaitFinish.
func (cl *Client) Finish() error {
	if err := cl.BeginFinish(); err != nil {
		return err
	}
	return cl.AwaitFinish()
}

// verdict is the outcome of one off-thread handshake verification.
type verdict struct {
	keys secchan.Keys
	err  error
}

// BeginFinish receives and decodes the server hello on the calling
// goroutine (wire faults and decode errors surface here), then starts the
// handshake verification — quote signature, MRTD, report-data binding,
// X25519 and key derivation — on its own goroutine. The client is a remote
// machine: its verification overlaps whatever the caller steps next.
// ClientFinish reads no entropy and charges no virtual cycles, and every
// input is captured before the goroutine starts, so the verdict is a pure
// function of the handshake bytes. No record connection exists until
// AwaitFinish has the verdict.
func (cl *Client) BeginFinish() error {
	if cl.pending != nil {
		return errors.New("client: handshake verification already in flight")
	}
	frame, err := cl.tr.Recv()
	if err != nil {
		return fmt.Errorf("client: no server hello: %w", err)
	}
	sh, err := secchan.DecodeServerHello(frame)
	if err != nil {
		return err
	}
	hello, priv, pub, mrtd := cl.hello, cl.priv, cl.quotingPub, cl.expected
	ch := make(chan verdict, 1)
	go func() {
		keys, err := secchan.ClientFinish(hello, priv, sh, pub, &mrtd)
		ch <- verdict{keys, err}
	}()
	cl.pending = ch
	return nil
}

// Verifying reports whether a verification started by BeginFinish has not
// been joined yet.
func (cl *Client) Verifying() bool { return cl.pending != nil }

// AwaitFinish joins the verification started by BeginFinish and, only if
// the quote verified, builds the record connection.
func (cl *Client) AwaitFinish() error {
	if cl.pending == nil {
		return errors.New("client: no handshake verification in flight")
	}
	v := <-cl.pending
	cl.pending = nil
	if v.err != nil {
		return v.err
	}
	conn, err := v.keys.Conn(cl.tr, 0)
	if err != nil {
		return err
	}
	// The client is the initiator: it retransmits on timeout (driven by the
	// session's RecvWait), not on duplicate receipt, so the two ends never
	// ping-pong retransmissions.
	cl.conn = secchan.NewReliable(conn)
	cl.conn.Rec, cl.conn.Track = cl.Rec, trace.TrackClient
	cl.conn.Met = cl.Met
	return nil
}

// Send transmits one padded encrypted request. The ciphertext is retained
// for idempotent retransmission (same sequence number, identical bytes).
func (cl *Client) Send(data []byte) error {
	if cl.conn == nil {
		return errors.New("client: handshake not finished")
	}
	return cl.conn.Send(data)
}

// Recv receives one response (secchan.ErrEmpty when none pending).
// Duplicates, replays and corrupt frames injected by the untrusted relay
// are absorbed and counted, never delivered.
func (cl *Client) Recv() ([]byte, error) {
	if cl.conn == nil {
		return nil, errors.New("client: handshake not finished")
	}
	return cl.conn.Recv()
}

// Retransmit re-sends all retained request records (timeout recovery).
func (cl *Client) Retransmit() {
	if cl.conn != nil {
		cl.conn.Retransmit()
	}
}

// ChannelStats exposes the client-side resilience counters.
func (cl *Client) ChannelStats() secchan.ReliableStats {
	if cl.conn == nil {
		return secchan.ReliableStats{}
	}
	return cl.conn.Stats
}

// drainTransport discards everything pending on the client's transport
// (stale frames from a failed handshake attempt).
func (cl *Client) drainTransport() {
	for {
		if _, err := cl.tr.Recv(); err != nil {
			return
		}
	}
}

// Session wires a client to a world's monitor through an untrusted
// in-memory proxy and returns all the moving parts.
type Session struct {
	Client *Client
	Proxy  *secchan.Proxy
	// MonTr is the monitor-side transport (passed to AcceptSession).
	MonTr secchan.Transport
	// W is the world the session belongs to (virtual clock for backoff,
	// scheduler for bounded waits).
	W *World
	// Inj, when non-nil, is the fault injector interposed on the untrusted
	// client<->proxy hop (chaos testing; see NewFaultySession).
	Inj *faultinject.Injector
}

// NewSession builds the client <-> proxy <-> monitor plumbing for a world.
func NewSession(w *World) *Session {
	return newSession(w, nil, secchan.DefaultQueueCap)
}

func newSession(w *World, inj *faultinject.Injector, queueCap int) *Session {
	clientEnd, proxyOuter := secchan.NewMemPipeCap(queueCap)
	proxyInner, monEnd := secchan.NewMemPipeCap(queueCap)
	var clientTr secchan.Transport = clientEnd
	var outer secchan.Transport = proxyOuter
	if inj != nil {
		// The client<->proxy hop is the fully untrusted segment: both
		// directions pass through the fault schedule.
		clientTr = inj.Wrap(clientEnd)
		outer = inj.Wrap(proxyOuter)
	}
	// The registry makes per-lane relay throughput (forwarded/dropped/
	// denied frame counts) observable without tracing.
	pr := &secchan.Proxy{Outer: outer, Inner: proxyInner, Met: w.Met}
	cl := NewClient(clientTr, w.QK.Public(), ExpectedMRTD(w.Mon.MonitorImage()))
	cl.Rec = w.Rec
	cl.Met = w.Met
	cl.Rand = w.Entropy
	if inj != nil && inj.Rec == nil {
		inj.Rec = w.Rec
	}
	return &Session{Client: cl, Proxy: pr, MonTr: monEnd, W: w, Inj: inj}
}

// NewInjectedSession builds a session around a caller-owned fault injector,
// so several sessions on one world can draw from a single deterministic
// fault schedule (the Platform chaos path). queueCap bounds each hop
// (0 = unbounded), mirroring NewBoundedSession.
func NewInjectedSession(w *World, inj *faultinject.Injector, queueCap int) *Session {
	return newSession(w, inj, queueCap)
}

// Pump relays pending frames both ways n times.
func (s *Session) Pump(n int) {
	for i := 0; i < n; i++ {
		s.Proxy.PumpOnce()
	}
}

// maxPumpRounds bounds PumpAll: relaying is one frame per direction per
// round, so this comfortably clears any queue a bounded session can build
// while guaranteeing termination (no hangs, ever).
const maxPumpRounds = 256

// PumpAll relays until the proxy goes quiescent (bounded; duplicated and
// replayed frames mean one round is rarely enough under fault injection).
func (s *Session) PumpAll() {
	idle := 0
	for i := 0; i < maxPumpRounds && idle < 2; i++ {
		if s.Proxy.PumpOnce() {
			idle = 0
		} else {
			idle++
		}
	}
}
