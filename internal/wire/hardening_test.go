package wire

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sconrep/internal/certifier"
	"sconrep/internal/core"
	"sconrep/internal/obs/dtrace"
	"sconrep/internal/replica"
	"sconrep/internal/storage"
	"sconrep/internal/writeset"
)

func testHello() outFrame { return &certHello{Kind: linkCertReq} }

// TestCallDeadlineOnStalledPeer guards the deadline hardening: a peer
// that accepts the request but never responds must not hang the call
// forever. Before wire carried deadlines, this test deadlocked.
func TestCallDeadlineOnStalledPeer(t *testing.T) {
	client, server := net.Pipe()
	defer server.Close()
	go func() {
		// Drain the hello and the first request, then go silent.
		fc := newFrameConn(server)
		_, _ = fc.readFrame()
		_, _ = fc.readFrame()
		select {} // stall forever; Close from the deferred cleanup frees us
	}()
	dial := func(network, addr string) (net.Conn, error) { return client, nil }
	p := newConnPool("stalled", testHello, dial, Timeouts{Call: 100 * time.Millisecond})
	start := time.Now()
	var resp certResponse
	err := p.call(&certRequest{Op: opTableVers}, &resp)
	if err == nil {
		t.Fatal("call against a stalled peer succeeded")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("deadline took %s to fire", elapsed)
	}
}

// TestCallDeadlineOnDeafPeer is the write-side variant: the peer never
// reads, so even the hello cannot flush. The write deadline must fail
// the call.
func TestCallDeadlineOnDeafPeer(t *testing.T) {
	client, server := net.Pipe()
	defer server.Close()
	dial := func(network, addr string) (net.Conn, error) { return client, nil }
	p := newConnPool("deaf", testHello, dial, Timeouts{Call: 100 * time.Millisecond})
	start := time.Now()
	var resp certResponse
	err := p.call(&certRequest{Op: opTableVers}, &resp)
	if err == nil {
		t.Fatal("call against a deaf peer succeeded")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("write deadline took %s to fire", elapsed)
	}
}

// TestSeqGuardDropsDuplicatedFrame: a duplicated request frame (the
// fault injector's DupProb, or any replaying middlebox) must kill the
// connection before the duplicate executes.
func TestSeqGuardDropsDuplicatedFrame(t *testing.T) {
	d := newDeployment(t, 1, core.Coarse)
	conn, err := net.Dial("tcp", d.repSrvs[0].Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fc := newFrameConn(conn)
	if err := fc.send(bareHello(linkReplica)); err != nil {
		t.Fatal(err)
	}
	if err := fc.send(&replicaRequest{Seq: 1, Op: opStatus}); err != nil {
		t.Fatal(err)
	}
	var resp replicaResponse
	if err := fc.recv(&resp); err != nil {
		t.Fatal(err)
	}
	if resp.Seq != 1 || resp.Crashed {
		t.Fatalf("status = %+v", resp)
	}
	// Replay the same sequence number: the server must drop the
	// connection without serving it.
	if err := fc.send(&replicaRequest{Seq: 1, Op: opStatus}); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if err := fc.recv(&resp); err == nil {
		t.Fatal("duplicated frame was served instead of dropping the connection")
	}
}

// TestCertClientResubscribeAfterServerRestart is the reconnect
// regression: kill the certifier server mid-stream, advance the
// certifier while the replica is partitioned, restart the server on
// the same port, and require the replica to catch up without missing a
// refresh.
func TestCertClientResubscribeAfterServerRestart(t *testing.T) {
	cert := certifier.New()
	srv, err := ServeCertifier(cert, "127.0.0.1:0",
		WithTimeouts(Timeouts{Call: 2 * time.Second, Idle: 200 * time.Millisecond}),
		WithBackoff(Backoff{Min: 5 * time.Millisecond, Max: 50 * time.Millisecond}))
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()

	// Replica 0 attaches over the wire.
	eng := storage.NewEngine()
	loadKV(t, eng)
	cc := DialCertifier(addr, 0, eng.Version(),
		WithTimeouts(Timeouts{Call: 2 * time.Second, Idle: 200 * time.Millisecond}),
		WithBackoff(Backoff{Min: 5 * time.Millisecond, Max: 50 * time.Millisecond}),
		WithVLocal(eng.Version))
	defer cc.Close()
	rep := replica.New(replica.Config{ID: 0, EarlyCert: true}, eng, cc)
	defer rep.Crash()

	// The client's hello carries VLocal for start-version adoption and
	// lands asynchronously; wait for it before committing anything.
	adopt := time.Now().Add(5 * time.Second)
	for cert.Version() != eng.Version() {
		if time.Now().After(adopt) {
			t.Fatalf("certifier never adopted start version %d", eng.Version())
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Replica 1 attaches in process, so it can keep committing while
	// the wire server is down.
	eng2 := storage.NewEngine()
	loadKV(t, eng2)
	rep2 := replica.New(replica.Config{ID: 1, EarlyCert: true}, eng2, replica.Local(cert))
	defer rep2.Crash()

	commit := func(r *replica.Replica, stmt string) uint64 {
		t.Helper()
		tx, err := r.Begin(0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := execStmt(tx, stmt); err != nil {
			t.Fatal(err)
		}
		res, err := tx.Commit(false)
		if err != nil {
			t.Fatal(err)
		}
		return res.Version
	}
	waitVersion := func(r *replica.Replica, v uint64) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for r.Version() < v {
			if time.Now().After(deadline) {
				t.Fatalf("replica %d stuck at version %d, want %d", r.ID(), r.Version(), v)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	v1 := commit(rep2, `UPDATE kv SET v = 'one' WHERE k = 1`)
	waitVersion(rep, v1) // stream works before the restart

	// Kill the server mid-stream. The client's queue must survive.
	srv.Close()
	deadline := time.Now().Add(5 * time.Second)
	for cc.StreamLive(0) {
		if time.Now().After(deadline) {
			t.Fatal("stream still reported live after server close")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The world moves on while replica 0 is partitioned.
	v2 := commit(rep2, `UPDATE kv SET v = 'two' WHERE k = 2`)
	v3 := commit(rep2, `UPDATE kv SET v = 'three' WHERE k = 3`)
	if rep.Version() >= v2 {
		t.Fatalf("partitioned replica saw version %d", rep.Version())
	}

	// Restart on the same port; the client must resubscribe from its
	// Vlocal and backfill v2 and v3 with no gap.
	srv2, err := ServeCertifier(cert, addr,
		WithTimeouts(Timeouts{Call: 2 * time.Second, Idle: 200 * time.Millisecond}))
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	waitVersion(rep, v3)

	got := snapshotKV(t, eng)
	if got[2] != "two" || got[3] != "three" {
		t.Fatalf("recovered state = %v", got)
	}
	if !cc.Ready(0) {
		t.Fatal("client not Ready after catch-up")
	}
	_ = v2
}

// TestLossyCertifierRestartAdoptsLiveVersion: a certifier restarted
// WITHOUT its decision log adopts its start version from the first
// hello. That hello must carry the replica's LIVE Vlocal — adopting
// the dial-time snapshot would re-assign already-used commit versions
// and crash every replica past the stale point.
func TestLossyCertifierRestartAdoptsLiveVersion(t *testing.T) {
	to := Timeouts{Call: 2 * time.Second, Idle: 200 * time.Millisecond}
	bo := Backoff{Min: 5 * time.Millisecond, Max: 50 * time.Millisecond}
	cert := certifier.New()
	srv, err := ServeCertifier(cert, "127.0.0.1:0", WithTimeouts(to), WithBackoff(bo))
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()

	eng := storage.NewEngine()
	loadKV(t, eng)
	boot := eng.Version()
	cc := DialCertifier(addr, 0, boot, WithTimeouts(to), WithBackoff(bo), WithVLocal(eng.Version))
	defer cc.Close()
	rep := replica.New(replica.Config{ID: 0, EarlyCert: true}, eng, cc)
	defer rep.Crash()

	commit := func(stmt string) uint64 {
		t.Helper()
		tx, err := rep.Begin(0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := execStmt(tx, stmt); err != nil {
			t.Fatal(err)
		}
		res, err := tx.Commit(false)
		if err != nil {
			t.Fatal(err)
		}
		return res.Version
	}
	wait := func(cond func() bool, what string) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	wait(func() bool { return cert.Version() == boot }, "bootstrap adoption")

	// Move the replica well past its bootstrap version.
	var v uint64
	for i := 1; i <= 3; i++ {
		v = commit(fmt.Sprintf(`UPDATE kv SET v = 'x%d' WHERE k = %d`, i, i))
	}
	wait(func() bool { return eng.Version() == v }, "commits applied")

	// Lossy restart: a FRESH certifier on the same port, no WAL replay.
	srv.Close()
	fresh := certifier.New()
	srv2, err := ServeCertifier(fresh, addr, WithTimeouts(to), WithBackoff(bo))
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()

	// Adoption must land on the live version v, not the bootstrap one.
	wait(func() bool { return fresh.Version() == v }, "live-version adoption")
	wait(func() bool { return cc.Ready(0) }, "client ready after restart")

	// The next commit gets a never-used version and applies cleanly.
	if got := commit(`UPDATE kv SET v = 'after' WHERE k = 1`); got != v+1 {
		t.Fatalf("post-restart commit got version %d, want %d", got, v+1)
	}
	if kv := snapshotKV(t, eng); kv[1] != "after" {
		t.Fatalf("post-restart state = %v", kv)
	}
}

// lateHello holds a connection's first Write — the hello — back for a
// moment while reporting it written, so the server sees it late
// relative to everything else the client goes on to do.
type lateHello struct {
	net.Conn
	first sync.Once
	sent  sync.WaitGroup
}

func (c *lateHello) Write(p []byte) (int, error) {
	late := false
	c.first.Do(func() {
		late = true
		b := append([]byte(nil), p...)
		c.sent.Add(1)
		go func() {
			defer c.sent.Done()
			time.Sleep(2 * time.Millisecond)
			c.Conn.Write(b)
		}()
	})
	if late {
		return len(p), nil
	}
	c.sent.Wait()
	return c.Conn.Write(p)
}

// TestSubscribeHasNoLostRefreshWindow: while the certifier commits
// continuously, a subscriber that connects, catches up and disconnects
// a few hundred times must see every version exactly in sequence. A
// commit certified between "the client learned the certifier's
// version" and "the server registered the subscription" used to be in
// neither the backfill nor the stream, and nothing on a live stream
// refills a gap; the serve floor now comes from the ack the server
// writes after registering.
func TestSubscribeHasNoLostRefreshWindow(t *testing.T) {
	cert := certifier.New()
	srv, err := ServeCertifier(cert, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	stop := make(chan struct{})
	certified := make(chan struct{})
	go func() {
		defer close(certified)
		for i := 1; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			ws := &writeset.WriteSet{Items: []writeset.Item{
				{Table: "t", Key: fmt.Sprint(i), Op: writeset.OpInsert, Row: []any{int64(i)}},
			}}
			if d, err := cert.Certify(0, uint64(i), cert.Version(), ws); err != nil || !d.Commit {
				t.Errorf("certify %d: %+v, %v", i, d, err)
				return
			}
			if i%4 == 0 {
				time.Sleep(100 * time.Microsecond)
			}
		}
	}()
	defer func() { close(stop); <-certified }()

	rounds := 300
	if testing.Short() {
		rounds = 40
	}
	// applied is the contiguous prefix delivered so far: the subscriber's
	// Vlocal, from which each reconnect resumes.
	var applied atomic.Uint64
	for round := 0; round < rounds; round++ {
		// The first connection a client dials is its subscription stream.
		var dials atomic.Int32
		dial := func(network, addr string) (net.Conn, error) {
			c, err := net.Dial(network, addr)
			if err != nil || dials.Add(1) > 1 {
				return c, err
			}
			return &lateHello{Conn: c}, nil
		}
		cli := DialCertifier(srv.Addr(), 1, applied.Load(), WithDialer(dial), WithVLocal(applied.Load),
			WithBackoff(Backoff{Min: time.Millisecond, Max: 10 * time.Millisecond}))
		q := cli.Subscribe(1)
		ahead := map[uint64]bool{} // delivered above a gap, waiting for it to fill
		deadline := time.Now().Add(10 * time.Second)
		// Run until the stream is up and has carried the prefix a little
		// past the serve floor: both the backfill and the live stream
		// have then been exercised.
		for !cli.StreamLive(0) || applied.Load() < cli.serveFloor.Load()+8 {
			if time.Now().After(deadline) {
				cli.Close()
				t.Fatalf("round %d: version %d never arrived (serve floor %d, %d later versions delivered)",
					round, applied.Load()+1, cli.serveFloor.Load(), len(ahead))
			}
			batch, ok := q.Take()
			if !ok {
				t.Fatalf("round %d: queue closed", round)
			}
			for _, r := range batch {
				if r.Version > applied.Load() {
					ahead[r.Version] = true
				}
			}
			for ahead[applied.Load()+1] {
				delete(ahead, applied.Load()+1)
				applied.Add(1)
			}
		}
		cli.Close()
	}
}

// TestSilentPeerIsReaped: a peer that connects and never sends its
// hello is torn down after Timeouts.Idle on all three servers — before
// the servers shared one prologue the gateway read the hello with no
// deadline and kept such a connection, and its goroutine, for good. A
// session that did say hello is the gateway's to keep: it may think for
// longer than Idle between requests, and its next transaction must not
// land on the pooled gateway → replica connection the replica reaped
// meanwhile (the pool drops one idle for Idle/2; before it did, the
// request was written to the dead connection and failed at the read).
func TestSilentPeerIsReaped(t *testing.T) {
	idle := WithTimeouts(Timeouts{Call: 2 * time.Second, Idle: 100 * time.Millisecond})
	cert := certifier.New()
	certSrv, err := ServeCertifier(cert, "127.0.0.1:0", idle)
	if err != nil {
		t.Fatal(err)
	}
	defer certSrv.Close()
	eng := storage.NewEngine()
	loadKV(t, eng)
	rep := replica.New(replica.Config{ID: 0, EarlyCert: true}, eng, replica.Local(cert))
	defer rep.Crash()
	repSrv, err := ServeReplica(rep, "127.0.0.1:0", idle)
	if err != nil {
		t.Fatal(err)
	}
	defer repSrv.Close()
	gw, err := ServeGateway("127.0.0.1:0", core.Coarse, []string{repSrv.Addr()}, idle)
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()

	for name, addr := range map[string]string{"certifier": certSrv.Addr(), "replica": repSrv.Addr(), "gateway": gw.Addr()} {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		c.SetReadDeadline(time.Now().Add(2 * time.Second))
		if _, err := c.Read(make([]byte, 1)); err == nil || isTimeout(err) {
			t.Errorf("%s kept a peer that never said hello (read: %v)", name, err)
		}
	}

	cli, err := Dial(gw.Addr(), "thinker")
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	for _, pause := range []time.Duration{0, 300 * time.Millisecond} {
		time.Sleep(pause)
		cli.Start("", nil, dtrace.SpanContext{})
		if _, err := cli.Exec(`SELECT v FROM kv WHERE k = 1`); err != nil {
			t.Fatalf("read after a %v pause (Idle is 100ms): %v", pause, err)
		}
		if _, _, err := cli.Commit(); err != nil {
			t.Fatal(err)
		}
	}
}

func isTimeout(err error) bool {
	ne, ok := err.(net.Error)
	return ok && ne.Timeout()
}
