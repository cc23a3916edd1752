package wire

import (
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sconrep/internal/certifier"
	"sconrep/internal/obs"
	"sconrep/internal/replica"
	"sconrep/internal/storage"
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

// watchGlobal drains an origin's subscription and keeps the highest
// global-commit notice it carried, which is how a test sees an eager
// wait end.
func watchGlobal(q replica.RefreshSource) *atomic.Uint64 {
	through := new(atomic.Uint64)
	go func() {
		for {
			batch, ok := q.Take()
			if !ok {
				return
			}
			for _, r := range batch {
				if r.Version == 0 && r.GlobalThrough > through.Load() {
					through.Store(r.GlobalThrough)
				}
			}
		}
	}()
	return through
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
	through := watchGlobal(c0.Subscribe(0))
	var dialer gatedDialer
	c1 := DialCertifier(srv.Addr(), 1, 0, backoff, WithDialer(dialer.dial))
	defer c1.Close()
	c1.Subscribe(1)
	waitFor(t, "both streams", func() bool { return c0.StreamLive(0) && c1.StreamLive(0) })

	certifyN(t, cert, 1) // from origin 0
	v := cert.Version()
	if through.Load() >= v {
		t.Fatal("global commit complete before replica 1 acknowledged")
	}

	release := dialer.hold()
	dialer.dialed()[0].Close()
	waitFor(t, "replica 1's stream to drop", func() bool { return !c1.StreamLive(0) })
	c1.Applied(1, v) // no stream up: on return it has kept v for the next one
	if through.Load() >= v {
		t.Fatal("an ack posted with no stream up reached the certifier")
	}

	release()
	waitFor(t, "the ack posted while the stream was down to be re-sent on resubscribe",
		func() bool { return through.Load() >= v })
}

// TestNoticeLostWithStream: the global-commit notice is a frame on the
// origin's subscription, so one put while that stream is down is gone.
// Replica 0 commits eagerly and waits for replica 1; its stream is cut,
// replica 1 acknowledges, and the commit returns on the notice the
// resubscription opens with.
func TestNoticeLostWithStream(t *testing.T) {
	cert, srv := serveEager(t)
	reg := obs.NewRegistry()
	cert.EnableObs(reg)
	eng := storage.NewEngine()
	loadKV(t, eng)
	var dialer gatedDialer
	c0 := DialCertifier(srv.Addr(), 0, eng.Version(), WithDialer(dialer.dial), WithVLocal(eng.Version),
		WithBackoff(Backoff{Min: time.Millisecond, Max: 10 * time.Millisecond}))
	defer c0.Close()
	rep := replica.New(replica.Config{ID: 0}, eng, c0)
	defer rep.Crash()
	waitFor(t, "replica 0's stream", func() bool { return c0.Ready(0) })
	fc1, _ := subscribeRaw(t, srv.Addr(), certHello{ReplicaID: 1})

	committed := make(chan error, 1)
	go func() {
		tx, err := rep.Begin(0, nil)
		if err == nil {
			if err = execStmt(tx, `UPDATE kv SET v = 'eager' WHERE k = 1`); err == nil {
				_, err = tx.Commit(true)
			}
		}
		committed <- err
	}()
	var v uint64
	for v == 0 { // replica 1's own opening notice, then the refresh
		var batch refreshBatch
		if err := fc1.recv(&batch); err != nil {
			t.Fatal(err)
		}
		v = batch[len(batch)-1].Version
	}

	release := dialer.hold()
	dialer.dialed()[0].Close() // the first dial is the subscription
	waitFor(t, "replica 0's stream to drop", func() bool { return !c0.StreamLive(0) })
	if err := fc1.send(&appliedAck{Version: v}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the certifier to end the wait", func() bool {
		var sb strings.Builder
		reg.WritePrometheus(&sb)
		return strings.Contains(sb.String(), "sconrep_certifier_eager_outstanding 0")
	})
	select {
	case err := <-committed:
		t.Fatalf("eager commit returned (%v) with the origin's stream down", err)
	default:
	}

	release()
	select {
	case err := <-committed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the resubscription's opening notice did not release the eager commit")
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
	c0 := DialCertifier(srv.Addr(), 0, 0)
	defer c0.Close()
	through := watchGlobal(c0.Subscribe(0))
	waitFor(t, "the origin's stream", func() bool { return c0.StreamLive(0) })
	fc, ack := subscribeRaw(t, srv.Addr(), certHello{ReplicaID: 1})
	if !ack.Acks {
		t.Fatal("an eager certifier's subAck did not ask for acknowledgments")
	}
	certifyN(t, cert, 1) // from origin 0
	v := cert.Version()

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
	if through.Load() >= v {
		t.Fatal("an ack for an unassigned version released the global commit")
	}

	fc, _ = subscribeRaw(t, srv.Addr(), certHello{ReplicaID: 1})
	if err := fc.send(&appliedAck{Version: v}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the honest ack to complete the global commit", func() bool { return through.Load() >= v })
	// The counter kept its name when the ack left the request link; it
	// counts frames that reached the certifier, so not the refused one.
	var sb strings.Builder
	reg.WritePrometheus(&sb)
	if want := `sconrep_wire_requests_total{link="certifier",op="applied"} 1`; !strings.Contains(sb.String(), want) {
		t.Fatalf("exposition lacks %q:\n%s", want, sb.String())
	}
}

// stallConn holds every Write until its release channel closes, once
// stalled: a link that stops taking bytes, as the fault injector's
// delay or a full socket buffer holds a writer inside Write.
type stallConn struct {
	net.Conn
	mu sync.Mutex
	// release, when non-nil, gates writes.
	// guarded by mu
	release chan struct{}
	waiting atomic.Bool // a Write is held
}

func (c *stallConn) stall(release chan struct{}) {
	c.mu.Lock()
	c.release = release
	c.mu.Unlock()
}

func (c *stallConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	release := c.release
	c.mu.Unlock()
	if release != nil {
		c.waiting.Store(true)
		<-release
	}
	return c.Conn.Write(p)
}

// TestAckWriteStallHoldsNoReconnect: a stream's apply acks have one
// writer of their own, so a write stuck on a dead stream holds nothing
// the next stream needs. The stream's Write stalls with an ack in it
// and no deadline (Call is 0), the stream is then cut, and the next
// stream must still come up and carry the ack.
func TestAckWriteStallHoldsNoReconnect(t *testing.T) {
	cert, srv := serveEager(t)
	reg := obs.NewRegistry()
	srv.EnableObs(reg)
	certifyN(t, cert, 1)
	v := cert.Version()
	var mu sync.Mutex
	var conns []*stallConn
	dial := func(network, addr string) (net.Conn, error) {
		c, err := net.Dial(network, addr)
		if err != nil {
			return nil, err
		}
		sc := &stallConn{Conn: c}
		mu.Lock()
		conns = append(conns, sc)
		mu.Unlock()
		return sc, nil
	}
	cli := DialCertifier(srv.Addr(), 1, 0, WithDialer(dial),
		WithBackoff(Backoff{Min: time.Millisecond, Max: 10 * time.Millisecond}))
	defer cli.Close()
	cli.Subscribe(1)
	waitFor(t, "the stream", func() bool { return cli.StreamLive(0) })

	release := make(chan struct{})
	defer close(release)
	mu.Lock()
	stream := conns[0] // the first dial is the subscription
	mu.Unlock()
	stream.stall(release)
	go cli.Applied(1, v)
	waitFor(t, "the ack write to stall", stream.waiting.Load)
	stream.Conn.Close()

	applied := `sconrep_wire_requests_total{link="certifier",op="applied"} 1`
	waitFor(t, "the next stream up, with the ack on it", func() bool {
		var sb strings.Builder
		reg.WritePrometheus(&sb)
		return cli.StreamLive(0) && strings.Contains(sb.String(), applied)
	})
}
