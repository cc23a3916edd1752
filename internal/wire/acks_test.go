package wire

import (
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"sconrep/internal/certifier"
	"sconrep/internal/obs"
)

// gatedDialer records every connection a client dials and can hold
// further dials back, so a test can break a stream and decide when the
// client gets its next one.
type gatedDialer struct {
	mu    sync.Mutex
	conns []net.Conn
	gate  chan struct{} // non-nil: dials wait for it to close
}

func (g *gatedDialer) dial(network, addr string) (net.Conn, error) {
	g.mu.Lock()
	gate := g.gate
	g.mu.Unlock()
	if gate != nil {
		<-gate
	}
	c, err := net.Dial(network, addr)
	if err == nil {
		g.mu.Lock()
		g.conns = append(g.conns, c)
		g.mu.Unlock()
	}
	return c, err
}

func (g *gatedDialer) hold() (release func()) {
	gate := make(chan struct{})
	g.mu.Lock()
	g.gate = gate
	g.mu.Unlock()
	return func() {
		g.mu.Lock()
		g.gate = nil
		g.mu.Unlock()
		close(gate)
	}
}

// dialed returns the connections dialed so far. The first one a
// subscribed client dials is its subscription stream.
func (g *gatedDialer) dialed() []net.Conn {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]net.Conn(nil), g.conns...)
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func isOpen(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return false
	default:
		return true
	}
}

func serveEager(t *testing.T) (*certifier.Certifier, *CertServer) {
	t.Helper()
	cert := certifier.New(certifier.WithEager())
	srv, err := ServeCertifier(cert, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return cert, srv
}

// TestAckPostedWhileStreamDown: an apply acknowledgment has no request
// to retry — it is a frame on the refresh stream — so one posted while
// the stream is down must open the next stream. Two subscribers on an
// eager certifier; replica 1's stream is broken, it acknowledges while
// disconnected, and the global commit completes on the reconnect alone.
func TestAckPostedWhileStreamDown(t *testing.T) {
	cert, srv := serveEager(t)
	backoff := WithBackoff(Backoff{Min: time.Millisecond, Max: 10 * time.Millisecond})
	c0 := DialCertifier(srv.Addr(), 0, 0, backoff)
	defer c0.Close()
	c0.Subscribe(0)
	var dialer gatedDialer
	c1 := DialCertifier(srv.Addr(), 1, 0, backoff, WithDialer(dialer.dial))
	defer c1.Close()
	c1.Subscribe(1)
	waitFor(t, "both streams", func() bool { return c0.StreamLive(0) && c1.StreamLive(0) })

	certifyN(t, cert, 1) // from origin 0
	v := cert.Version()
	committed := cert.GlobalCommitted(v)
	if !isOpen(committed) {
		t.Fatal("global commit complete before replica 1 acknowledged")
	}

	release := dialer.hold()
	dialer.dialed()[0].Close()
	waitFor(t, "replica 1's stream to drop", func() bool { return !c1.StreamLive(0) })
	c1.Applied(1, v) // synchronous: on return it has written, or kept v
	if !isOpen(committed) {
		t.Fatal("an ack posted with no stream up reached the certifier")
	}

	release()
	select {
	case <-committed:
	case <-time.After(10 * time.Second):
		t.Fatal("the ack posted while the stream was down was not re-sent on resubscribe")
	}
}

// TestSubscriberHalfCloseEndsStream: the server reads the subscription
// connection, so a replica-side CloseWrite (the fault injector's
// half-close) ends the stream at once and the client resubscribes.
// Nothing read that direction before; the half-open stream lived on.
func TestSubscriberHalfCloseEndsStream(t *testing.T) {
	cert := certifier.New()
	srv, err := ServeCertifier(cert, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var dialer gatedDialer
	cli := DialCertifier(srv.Addr(), 1, 0, WithDialer(dialer.dial),
		WithBackoff(Backoff{Min: time.Millisecond, Max: 10 * time.Millisecond}))
	defer cli.Close()
	q := cli.Subscribe(1)
	waitFor(t, "the stream", func() bool { return cli.StreamLive(0) })

	if err := dialer.dialed()[0].(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "a second stream after the half-close", func() bool {
		return len(dialer.dialed()) >= 2 && cli.StreamLive(0)
	})
	// The new stream is a registered subscription: a commit made now
	// arrives on it.
	certifyN(t, cert, 1) // from origin 0
	v := cert.Version()
	batch, ok := q.Take()
	if !ok || batch[len(batch)-1].Version != v {
		t.Fatalf("after resubscribe: batch %+v, ok %v; want version %d", batch, ok, v)
	}
}

// TestAckAboveVersionClosesStream: an ack clears its replica from every
// eager wait at or below its version, and over TCP the version is input
// from outside the program. One above anything the certifier assigned
// is refused — the stream is closed, no wait released — and the honest
// ack on the next stream completes the commit.
func TestAckAboveVersionClosesStream(t *testing.T) {
	cert, srv := serveEager(t)
	reg := obs.NewRegistry()
	srv.EnableObs(reg)
	fc, ack := subscribeRaw(t, srv.Addr(), certHello{ReplicaID: 1})
	if !ack.Acks {
		t.Fatal("an eager certifier's subAck did not ask for acknowledgments")
	}
	certifyN(t, cert, 1) // from origin 0
	v := cert.Version()
	committed := cert.GlobalCommitted(v)

	if err := fc.send(&appliedAck{Version: 1 << 60}); err != nil {
		t.Fatal(err)
	}
	// The refresh for v may still arrive; after it the stream ends.
	for {
		var batch refreshBatch
		if err := fc.recv(&batch); err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				t.Fatal("stream still open after an ack for an unassigned version")
			}
			break
		}
	}
	if !isOpen(committed) {
		t.Fatal("an ack for an unassigned version released the global commit")
	}

	fc, _ = subscribeRaw(t, srv.Addr(), certHello{ReplicaID: 1})
	if err := fc.send(&appliedAck{Version: v}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-committed:
	case <-time.After(10 * time.Second):
		t.Fatal("the honest ack did not complete the global commit")
	}
	// The counter kept its name when the ack left the request link; it
	// counts frames that reached the certifier, so not the refused one.
	var sb strings.Builder
	reg.WritePrometheus(&sb)
	if want := `sconrep_wire_requests_total{link="certifier",op="applied"} 1`; !strings.Contains(sb.String(), want) {
		t.Fatalf("exposition lacks %q:\n%s", want, sb.String())
	}
}
