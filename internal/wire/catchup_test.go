package wire

import (
	"bufio"
	"bytes"
	"fmt"
	"log"
	"net"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"sconrep/internal/certifier"
	"sconrep/internal/replica"
	"sconrep/internal/storage"
)

// tapDialer records what a certifier client sends and receives: how many
// request frames it writes (one Write is one frame) and the bytes each
// subscription stream delivers. A connection's link is its hello's.
type tapDialer struct {
	mu    sync.Mutex
	conns []*tapConn
}

type tapConn struct {
	net.Conn
	d *tapDialer
	// guarded by d.mu
	link     link
	writes   int
	received bytes.Buffer
}

func (d *tapDialer) dial(network, addr string) (net.Conn, error) {
	c, err := net.Dial(network, addr)
	if err != nil {
		return nil, err
	}
	tc := &tapConn{Conn: c, d: d}
	d.mu.Lock()
	d.conns = append(d.conns, tc)
	d.mu.Unlock()
	return tc, nil
}

func (c *tapConn) Write(p []byte) (int, error) {
	c.d.mu.Lock()
	if c.writes == 0 && len(p) > 4+len(helloMagic)+1 {
		c.link = link(p[4+len(helloMagic)+1])
	}
	c.writes++
	c.d.mu.Unlock()
	return c.Conn.Write(p)
}

func (c *tapConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.d.mu.Lock()
	if c.link == linkCertSub {
		c.received.Write(p[:n])
	}
	c.d.mu.Unlock()
	return n, err
}

// mark is the number of connections dialed so far: streams(mark)
// decodes only the ones dialed after it.
func (d *tapDialer) mark() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.conns)
}

// requests counts the request frames written so far.
func (d *tapDialer) requests() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := 0
	for _, c := range d.conns {
		if c.link == linkCertReq {
			n += c.writes - 1 // the hello is no request
		}
	}
	return n
}

// streams decodes the subscription streams dialed since mark: each
// one's subAck and the refresh batches after it.
func (d *tapDialer) streams(t *testing.T, mark int) (acks []subAck, batches []refreshBatch) {
	t.Helper()
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, c := range d.conns[mark:] {
		if c.link != linkCertSub {
			continue
		}
		fc := &frameConn{br: bufio.NewReader(bytes.NewReader(c.received.Bytes()))}
		var ack subAck
		if _, err := fc.recvHello(string(linkSubAck), &ack); err != nil {
			t.Fatalf("subscription stream without a subAck: %v", err)
		}
		acks = append(acks, ack)
		for {
			var b refreshBatch
			if fc.recv(&b) != nil {
				break
			}
			batches = append(batches, b)
		}
	}
	return acks, batches
}

// twoReplicas is a certifier on TCP with replica 0 attached over the
// wire through tap and replica 1 in process, both loaded alike.
func twoReplicas(t *testing.T, tap *tapDialer, opts ...Option) (cert *certifier.Certifier, srv *CertServer, remote *replica.Replica, cc *CertClient, local *replica.Replica) {
	t.Helper()
	cert = certifier.New()
	srv, err := ServeCertifier(cert, "127.0.0.1:0", opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	eng := storage.NewEngine()
	loadKV(t, eng)
	cc = DialCertifier(srv.Addr(), 0, eng.Version(), append(opts, WithDialer(tap.dial), WithVLocal(eng.Version))...)
	t.Cleanup(cc.Close)
	remote = replica.New(replica.Config{ID: 0, EarlyCert: true}, eng, cc)
	t.Cleanup(remote.Crash)
	waitFor(t, "start-version adoption", func() bool { return cert.Version() == eng.Version() })
	eng1 := storage.NewEngine()
	loadKV(t, eng1)
	local = replica.New(replica.Config{ID: 1, EarlyCert: true}, eng1, replica.Local(cert))
	t.Cleanup(local.Crash)
	waitFor(t, "the remote replica's stream", func() bool { return cc.Ready(0) })
	return cert, srv, remote, cc, local
}

func commitKV(t *testing.T, r *replica.Replica, k int, v string) uint64 {
	t.Helper()
	tx, err := r.Begin(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := execStmt(tx, fmt.Sprintf(`UPDATE kv SET v = '%s' WHERE k = %d`, v, k)); err != nil {
		t.Fatal(err)
	}
	res, err := tx.Commit(false)
	if err != nil {
		t.Fatal(err)
	}
	return res.Version
}

// TestRecoverFetchesMissedSuffixOnce: a networked replica that recovers
// receives each version it missed exactly once, in its new
// subscription's backfill, and sends the certifier no request for it.
// Recover returns only once the replica has applied them all.
func TestRecoverFetchesMissedSuffixOnce(t *testing.T) {
	var tap tapDialer
	cert, _, remote, _, local := twoReplicas(t, &tap)
	first := commitKV(t, local, 1, "live")
	waitFor(t, "the live refresh", func() bool { return remote.Version() >= first })

	remote.Crash()
	const missed = 20
	for i := 0; i < missed; i++ {
		commitKV(t, local, i%10, fmt.Sprintf("down-%d", i))
	}
	final := cert.Version()
	mark, requests := tap.mark(), tap.requests()
	if err := remote.Recover(); err != nil {
		t.Fatal(err)
	}
	if v := remote.Version(); v != final {
		t.Fatalf("Recover returned at version %d, before the floor %d", v, final)
	}
	if n := tap.requests() - requests; n != 0 {
		t.Fatalf("recovery sent the certifier %d requests, want none: the subscription carries the backfill", n)
	}
	acks, batches := tap.streams(t, mark)
	if len(acks) != 1 || acks[0].Version != final {
		t.Fatalf("recovery subscribed %d times, floors %+v; want once, at %d", len(acks), acks, final)
	}
	times := make(map[uint64]int)
	for _, b := range batches {
		for _, r := range b {
			times[r.Version]++
		}
	}
	for v := first + 1; v <= final; v++ {
		if times[v] != 1 {
			t.Fatalf("missed version %d reached the replica %d times, want once (deliveries %v)", v, times[v], times)
		}
	}
	if len(times) != missed {
		t.Fatalf("the stream carried versions %v, want exactly the %d missed", times, missed)
	}
}

// TestReconnectBelowTrimFloorIsRefused: a networked replica whose
// stream drops while the certifier trims its history past the replica's
// version is refused when it reconnects. It logs the refusal once, stops
// resubscribing, and never serves again: no backfill can bring it up to
// date, and a replica serving from a wedged stream would be stale.
func TestReconnectBelowTrimFloorIsRefused(t *testing.T) {
	var logged logBuffer
	log.SetOutput(&logged)
	defer log.SetOutput(os.Stderr)
	opts := []Option{
		WithTimeouts(Timeouts{Call: 2 * time.Second, Idle: 200 * time.Millisecond}),
		WithBackoff(Backoff{Min: time.Millisecond, Max: 5 * time.Millisecond}),
	}
	var tap tapDialer
	cert, srv, remote, cc, local := twoReplicas(t, &tap, opts...)
	addr := srv.Addr()
	v := commitKV(t, local, 1, "before")
	waitFor(t, "the live refresh", func() bool { return remote.Version() >= v })

	srv.Close()
	waitFor(t, "the stream to drop", func() bool { return !cc.StreamLive(0) })
	for i := 0; i < 3; i++ {
		commitKV(t, local, i, fmt.Sprintf("during-%d", i))
	}
	cert.TrimBelow(cert.Version())
	srv2, err := ServeCertifier(cert, addr, opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()

	const refusal = "refuses replica 0: certifier: history is trimmed through version"
	waitFor(t, "the refusal", func() bool { return strings.Contains(logged.String(), refusal) })
	// Room for many reconnects at the 5 ms backoff ceiling: there is none.
	for deadline := time.Now().Add(200 * time.Millisecond); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if cc.Serving() {
			t.Fatal("a replica refused for a trimmed history serves")
		}
	}
	out := logged.String()
	if n := strings.Count(out, refusal); n != 1 {
		t.Fatalf("replica logged the refusal %d times, want once:\n%s", n, out)
	}
	if n := strings.Count(out, "wire: certifier: replica 0: certifier: history is trimmed"); n != 1 {
		t.Fatalf("certifier logged the refusal %d times, want once:\n%s", n, out)
	}
	if got := remote.Version(); got != v {
		t.Fatalf("refused replica moved from %d to %d", v, got)
	}
}

// TestBacklogStreamFramesAreCapped: a subscriber more than
// certifier.MaxHistoryBatch versions behind receives its whole backfill,
// in order, in frames of at most MaxHistoryBatch refreshes.
func TestBacklogStreamFramesAreCapped(t *testing.T) {
	cert := certifier.New()
	srv, err := ServeCertifier(cert, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	const backlog = certifier.MaxHistoryBatch + 100
	certifyN(t, cert, backlog)
	fc, ack := subscribeRaw(t, srv.Addr(), certHello{ReplicaID: 3})
	if ack.Version != backlog {
		t.Fatalf("subscription floor %d, want %d", ack.Version, backlog)
	}
	frames := 0
	for seen := uint64(0); seen < backlog; frames++ {
		var batch refreshBatch
		if err := fc.recv(&batch); err != nil {
			t.Fatalf("backlog frame after version %d: %v", seen, err)
		}
		if len(batch) > certifier.MaxHistoryBatch {
			t.Fatalf("one frame carried %d refreshes, above the %d cap", len(batch), certifier.MaxHistoryBatch)
		}
		for _, r := range batch {
			if r.Version != seen+1 {
				t.Fatalf("version %d out of order (want %d)", r.Version, seen+1)
			}
			seen = r.Version
		}
	}
	if frames < 2 {
		t.Fatalf("a backlog of %d arrived in %d frame(s)", backlog, frames)
	}
}
