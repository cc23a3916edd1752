package wire

import (
	"errors"
	"net"
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"sconrep/internal/core"
	"sconrep/internal/lb"
	"sconrep/internal/metrics"
	"sconrep/internal/obs"
	"sconrep/internal/obs/dtrace"
	"sconrep/internal/sql"
)

// TestCarriedEndFeedsSessionFloor: a read-only commit sends nothing, and
// the session's next request, which carries its end, raises the
// session's floor before that request's transaction is routed — as the
// answered commit did. The replicas then commit an update the gateway
// never sees, so their version passes the one its tracker was seeded
// with at startup (core.Tracker.Seed), and the floor the second
// transaction is routed with can only have come from the first one's
// observation: the session version under SC, the read table's
// per-session version under FSC.
func TestCarriedEndFeedsSessionFloor(t *testing.T) {
	for _, mode := range []core.Mode{core.Session, core.Fine} {
		t.Run(mode.String(), func(t *testing.T) {
			d := newDeployment(t, 2, mode)
			unseen := commitUnseen(t, d)
			coll := dtrace.NewCollector(64)
			d.gateway.Balancer().EnableTracing(dtrace.New("gateway", coll))
			var frames atomic.Int64
			c, err := Dial(d.gateway.Addr(), "reader", WithDialer(countingDialer(&frames)))
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if err := c.RegisterTxn("readKV", []string{"kv"}); err != nil {
				t.Fatal(err)
			}
			// routedAt runs one read and returns the start bound it was
			// routed with and the snapshot it was answered at.
			routedAt := func() (minVersion, snapshot uint64) {
				t.Helper()
				c.Start("readKV", nil, dtrace.SpanContext{})
				if _, err := c.Exec(`SELECT v FROM kv WHERE k = 1`); err != nil {
					t.Fatal(err)
				}
				route := coll.Recent(1)[0]
				minVersion, err := strconv.ParseUint(route.Attrs["min_version"], 10, 64)
				if route.Name != "lb.route" || err != nil {
					t.Fatalf("latest gateway span = %+v", route)
				}
				return minVersion, c.Snapshot()
			}
			min1, snap := routedAt()
			if min1 >= snap || snap < unseen {
				t.Fatalf("first read routed with MinVersion %d at snapshot %d, want the snapshot at or above the unseen commit %d and the bound below it", min1, snap, unseen)
			}
			before := frames.Load()
			info, err := c.CommitEx()
			if err != nil || !info.ReadOnly || info.Version != snap {
				t.Fatalf("commit = %+v, %v", info, err)
			}
			if got := frames.Load() - before; got != 0 {
				t.Fatalf("a read-only commit moved %d client-link frames, want none", got)
			}
			if min2, _ := routedAt(); min2 < snap {
				t.Fatalf("next transaction routed with MinVersion %d, want >= %d, the snapshot the session read at", min2, snap)
			}
		})
	}
}

// commitUnseen commits an update on replica 0 directly, past the
// gateway, waits until every replica has applied it, and returns its
// version.
func commitUnseen(t *testing.T, d *deployment) uint64 {
	t.Helper()
	p, err := sql.Prepare(`UPDATE kv SET v = 'unseen' WHERE k = 1`)
	if err != nil {
		t.Fatal(err)
	}
	tx, err := d.replicas[0].Begin(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(p); err != nil {
		t.Fatal(err)
	}
	res, err := tx.Commit(false)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for _, r := range d.replicas {
		for r.Version() < res.Version {
			if time.Now().After(deadline) {
				t.Fatalf("replica %d stuck at %d, want %d", r.ID(), r.Version(), res.Version)
			}
			time.Sleep(time.Millisecond)
		}
	}
	return res.Version
}

// rawPeer is a hand-driven connection: the hello is sent, the rest is
// the test's.
func rawPeer(t *testing.T, addr string, hello outFrame) *frameConn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	fc := newFrameConn(conn)
	if err := fc.send(hello); err != nil {
		t.Fatal(err)
	}
	return fc
}

// expectClosed fails the test unless the peer closes the connection
// without writing another frame.
func expectClosed(t *testing.T, fc *frameConn, after string) {
	t.Helper()
	if p, err := fc.readFrame(); err == nil {
		t.Fatalf("the peer answered %s with %d bytes", after, len(p))
	} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatalf("connection still open after %s", after)
	}
}

// TestCarriedEndOutOfPlaceClosesSession: only an abort, and the commit
// of an open transaction whose latest response said read-only, may travel
// as an end. The gateway closes the connection on a commit end of a
// transaction that wrote, or with nothing open, whatever request carries
// it — it guesses nothing about a peer that disagrees on who answers
// what — and the close aborts what was open; nothing reaches the
// certifier, and the carrying request does not run.
func TestCarriedEndOutOfPlaceClosesSession(t *testing.T) {
	const read, write = `SELECT v FROM kv WHERE k = 1`, `UPDATE kv SET v = 'hostile' WHERE k = 1`
	for _, tc := range []struct {
		name    string
		first   *clientRequest // answered, opens the transaction; nil: none
		carrier clientRequest  // carries a commit end
	}{
		{"commit after an update", &clientRequest{Begin: true, Op: opExec, SQL: write}, clientRequest{}},
		{"exec", &clientRequest{Begin: true, Op: opExec, SQL: write}, clientRequest{Op: opExec, SQL: read}},
		{"begin header", &clientRequest{Begin: true, Op: opExec, SQL: write}, clientRequest{Begin: true, Op: opExec, SQL: read}},
		{"commit with nothing open", nil, clientRequest{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := newDeployment(t, 1, core.Coarse)
			v0 := d.cert.Version()
			fc := rawPeer(t, d.gateway.Addr(), &clientHello{SessionID: "hostile"})
			seq := uint64(0)
			if tc.first != nil {
				seq++
				tc.first.Seq = seq
				var resp clientResponse
				if err := fc.send(tc.first); err != nil {
					t.Fatal(err)
				}
				if err := fc.recv(&resp); err != nil || resp.Err != "" {
					t.Fatalf("opening request: %+v, %v", resp, err)
				}
				if wrote := tc.first.SQL == write; resp.ReadOnly == wrote {
					t.Fatalf("response to a statement that wrote=%v says ReadOnly=%v", wrote, resp.ReadOnly)
				}
			}
			tc.carrier.Seq, tc.carrier.HasEnd = seq+1, true
			if err := fc.send(&tc.carrier); err != nil {
				t.Fatal(err)
			}
			expectClosed(t, fc, "a commit end out of place")
			d.idle(t)
			if v := d.cert.Version(); v != v0 {
				t.Fatalf("certifier moved from version %d to %d", v0, v)
			}
		})
	}
}

// TestReplicaCommitEndOfWriterAborts: a commit end has nobody to hear
// a verdict, so a replica never certifies one — a transaction that wrote
// is aborted — and the request that carried it is answered for its own
// operation, after the end ran.
func TestReplicaCommitEndOfWriterAborts(t *testing.T) {
	d := newDeployment(t, 1, core.Coarse)
	v0 := d.cert.Version()
	fc := rawPeer(t, d.repSrvs[0].Addr(), bareHello(linkReplica))
	var resp replicaResponse
	if err := fc.send(&replicaRequest{Seq: 1, Begin: true, Op: opExec, SQL: `UPDATE kv SET v = 'lost' WHERE k = 1`}); err != nil {
		t.Fatal(err)
	}
	if err := fc.recv(&resp); err != nil || resp.Err != "" || resp.Commit.ReadOnly || d.replicas[0].Active() != 1 {
		t.Fatalf("update: %+v, %v; %d active", resp, err, d.replicas[0].Active())
	}
	if err := fc.send(&replicaRequest{Seq: 2, Op: opStatus, Ends: []replicaEnd{{TxnID: resp.TxnID}}}); err != nil {
		t.Fatal(err)
	}
	if err := fc.recv(&resp); err != nil || resp.Seq != 2 || resp.Active != 0 {
		t.Fatalf("status carrying the commit end: %+v, %v; want nothing open", resp, err)
	}
	if v := d.cert.Version(); v != v0 {
		t.Fatalf("certifier moved from version %d to %d: a commit end was certified", v0, v)
	}
	if got := snapshotKV(t, d.replicas[0].Engine())[1]; got != "init" {
		t.Fatalf("kv[1] = %q after an aborted commit end", got)
	}
}

// readTxn opens a read on the replica at addr over fc — the begin header
// riding on the statement — and returns its TxnID.
func readTxn(t *testing.T, fc *frameConn, seq uint64) uint64 {
	t.Helper()
	var resp replicaResponse
	if err := fc.send(&replicaRequest{Seq: seq, Begin: true, Op: opExec, SQL: `SELECT v FROM kv WHERE k = 1`}); err != nil {
		t.Fatal(err)
	}
	if err := fc.recv(&resp); err != nil || resp.Err != "" || !resp.Commit.ReadOnly || resp.TxnID == 0 {
		t.Fatalf("read: %+v, %v", resp, err)
	}
	return resp.TxnID
}

// status sends a status request carrying ends over fc and returns the
// replica's answer.
func status(t *testing.T, fc *frameConn, seq uint64, ends ...replicaEnd) *replicaResponse {
	t.Helper()
	var resp replicaResponse
	if err := fc.send(&replicaRequest{Seq: seq, Op: opStatus, Ends: ends}); err != nil {
		t.Fatal(err)
	}
	if err := fc.recv(&resp); err != nil || resp.Seq != seq {
		t.Fatalf("status: %+v, %v", resp, err)
	}
	return &resp
}

// TestHeldEndIdleBound: the end of a read that the gateway holds, with no
// request to its replica after it, waits for the gateway's next status
// probe, so the replica has it within one probe period; FlushEnds and
// Close deliver it at once.
func TestHeldEndIdleBound(t *testing.T) {
	d := newDeployment(t, 1, core.Coarse)
	rep := d.replicas[0]
	// readThrough runs one read through gw and returns once the gateway
	// has taken its commit end, carried on a register request, which
	// sends nothing to a replica: the gateway holds the end from then on.
	readThrough := func(gw *Gateway) time.Time {
		t.Helper()
		c, err := Dial(gw.Addr(), "idle")
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		c.Start("", nil, dtrace.SpanContext{})
		if _, err := c.Exec(`SELECT v FROM kv WHERE k = 1`); err != nil {
			t.Fatal(err)
		}
		if info, err := c.CommitEx(); err != nil || !info.ReadOnly {
			t.Fatalf("commit = %+v, %v", info, err)
		}
		if err := c.RegisterTxn("carrier", []string{"kv"}); err != nil {
			t.Fatal(err)
		}
		if n := gw.replicas[0].Active(); n != 0 {
			t.Fatalf("gateway counts %d open on the replica after the register request carried the end", n)
		}
		return time.Now()
	}

	t.Run("probe", func(t *testing.T) {
		held := readThrough(d.gateway)
		// Half a period on top is slack for a loaded scheduler.
		for rep.Active() != 0 {
			if time.Since(held) > probePeriod+probePeriod/2 {
				t.Fatalf("replica still has the read open %v after the gateway took its commit; probe period %v", time.Since(held), probePeriod)
			}
			time.Sleep(time.Millisecond)
		}
	})
	t.Run("FlushEnds", func(t *testing.T) {
		readThrough(d.gateway)
		d.gateway.FlushEnds()
		if n := rep.Active(); n != 0 {
			t.Fatalf("replica has %d open transactions after FlushEnds", n)
		}
	})
	t.Run("Close", func(t *testing.T) {
		gw, err := ServeGateway("127.0.0.1:0", core.Coarse, []string{d.repSrvs[0].Addr()})
		if err != nil {
			t.Fatal(err)
		}
		readThrough(gw)
		gw.Close()
		if n := rep.Active(); n != 0 {
			t.Fatalf("replica has %d open transactions after the gateway closed", n)
		}
	})
	t.Run("Close with a read open", func(t *testing.T) {
		gw, err := ServeGateway("127.0.0.1:0", core.Coarse, []string{d.repSrvs[0].Addr()})
		if err != nil {
			t.Fatal(err)
		}
		c, err := Dial(gw.Addr(), "open")
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		c.Start("", nil, dtrace.SpanContext{})
		if _, err := c.Exec(`SELECT v FROM kv WHERE k = 1`); err != nil {
			t.Fatal(err)
		}
		// The session's abort is held after Close has flushed, and no
		// probe follows: the closing session delivers it itself.
		gw.Close()
		for deadline := time.Now().Add(probePeriod); rep.Active() != 0; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("replica still has %d open transactions %v after the gateway closed", rep.Active(), probePeriod)
			}
		}
	})
}

// TestClientHeldEndIdleBound: a read-only commit or an abort sends
// nothing, and an idle client sends the end it holds on a request of its
// own one probe period on, which the gateway passes on to the replica at
// once: the replica sees the end within two probe periods. Close sends it
// before it closes the connection.
func TestClientHeldEndIdleBound(t *testing.T) {
	d := newDeployment(t, 1, core.Coarse)
	rep := d.replicas[0]
	// open runs one statement in a new transaction on a new session.
	open := func(sql string) *Client {
		t.Helper()
		c, err := Dial(d.gateway.Addr(), "idle")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		c.Start("", nil, dtrace.SpanContext{})
		if _, err := c.Exec(sql); err != nil {
			t.Fatal(err)
		}
		return c
	}
	// idleBound fails the test unless the replica, and the gateway's
	// count of it, read nothing open within 2.5 probe periods of ended
	// (the half period is slack for a loaded scheduler), and unless the
	// client sent exactly one request for the end.
	idleBound := func(c *Client, ended time.Time) {
		t.Helper()
		seq := c.sent()
		for rep.Active() != 0 || d.gateway.replicas[0].Active() != 0 {
			if time.Since(ended) > 2*probePeriod+probePeriod/2 {
				t.Fatalf("replica has %d open %v after an idle client ended its transaction; probe period %v",
					rep.Active(), time.Since(ended), probePeriod)
			}
			time.Sleep(time.Millisecond)
		}
		c.mu.Lock()
		defer c.mu.Unlock()
		if c.seq != seq+1 || c.holding {
			t.Fatalf("the idle client sent %d requests and holds an end: %v; want one request and none held", c.seq-seq, c.holding)
		}
	}

	t.Run("read", func(t *testing.T) {
		c := open(`SELECT v FROM kv WHERE k = 1`)
		if info, err := c.CommitEx(); err != nil || !info.ReadOnly {
			t.Fatalf("commit = %+v, %v", info, err)
		}
		idleBound(c, time.Now())
	})
	t.Run("abort", func(t *testing.T) {
		c := open(`UPDATE kv SET v = 'idle' WHERE k = 1`)
		if err := c.Abort(); err != nil {
			t.Fatal(err)
		}
		idleBound(c, time.Now())
		if got := snapshotKV(t, rep.Engine())[1]; got != "init" {
			t.Fatalf("kv[1] = %q after the abort", got)
		}
	})
	t.Run("Close", func(t *testing.T) {
		for _, sql := range []string{`SELECT v FROM kv WHERE k = 1`, `UPDATE kv SET v = 'idle' WHERE k = 1`} {
			c := open(sql)
			var err error
			if sql[0] == 'S' {
				_, err = c.CommitEx()
			} else {
				err = c.Abort()
			}
			if err != nil {
				t.Fatal(err)
			}
			c.Close()
			if n := rep.Active(); n != 0 {
				t.Fatalf("replica has %d open after the client closed: %s", n, sql)
			}
		}
	})
}

// TestClientIdleTimerRacesSession: the idle timer's request and the
// session's own never interleave on the wire. A goroutine plays the
// timer, firing it over and over, while the session runs reads back to
// back: every call succeeds in sequence, and nothing is left open once
// the client closes.
func TestClientIdleTimerRacesSession(t *testing.T) {
	d := newDeployment(t, 1, core.Coarse)
	c, err := Dial(d.gateway.Addr(), "raced")
	if err != nil {
		t.Fatal(err)
	}
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			c.sendIdle()
			runtime.Gosched()
		}
	}()
	const reads = 200
	for i := 0; i < reads; i++ {
		c.Start("", nil, dtrace.SpanContext{})
		if _, err := c.Exec(`SELECT v FROM kv WHERE k = 1`); err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if info, err := c.CommitEx(); err != nil || !info.ReadOnly {
			t.Fatalf("commit %d = %+v, %v", i, info, err)
		}
	}
	close(stop)
	<-done
	t.Logf("%d requests for %d reads", c.sent(), reads)
	if c.Broken() {
		t.Fatal("the session broke")
	}
	c.Close()
	d.idle(t)
}

// TestClientHeldEndExcisedFromStages: the time the client held a read's
// end is not Queries time either. The client holds it past 50ms before
// Close sends it; the replica's Queries stage is the statement's.
func TestClientHeldEndExcisedFromStages(t *testing.T) {
	d := newDeployment(t, 1, core.Coarse)
	finished := make(chan metrics.Timeline, 1)
	d.replicas[0].OnFinish(func(tl metrics.Timeline, committed, readOnly bool) {
		if committed && readOnly {
			finished <- tl
		}
	})
	c, err := Dial(d.gateway.Addr(), "held")
	if err != nil {
		t.Fatal(err)
	}
	c.Start("", nil, dtrace.SpanContext{})
	if _, err := c.Exec(`SELECT v FROM kv WHERE k = 1`); err != nil {
		t.Fatal(err)
	}
	if info, err := c.CommitEx(); err != nil || !info.ReadOnly {
		t.Fatalf("commit = %+v, %v", info, err)
	}
	const hold = 60 * time.Millisecond
	time.Sleep(hold)
	c.Close()
	var tl metrics.Timeline
	select {
	case tl = <-finished:
	case <-time.After(5 * time.Second):
		t.Fatal("the read never committed at the replica")
	}
	if q := tl.Stage(metrics.StageQueries); q >= hold-10*time.Millisecond {
		t.Fatalf("Queries stage %v holds the %v the client held the end", q, hold)
	}
}

// TestEndUnknownOrRepeatedIsNoop: an end naming a transaction the replica
// does not hold — one already ended, or an ID it never issued — ends
// nothing, and still counts as the request it stands for.
func TestEndUnknownOrRepeatedIsNoop(t *testing.T) {
	d := newDeployment(t, 1, core.Coarse)
	reg := obs.NewRegistry()
	d.repSrvs[0].EnableObs(reg)
	count := func(o op) int64 { return d.repSrvs[0].obsReqs.Load().With(o.String()).Value() }
	fc := rawPeer(t, d.repSrvs[0].Addr(), bareHello(linkReplica))
	first := readTxn(t, fc, 1)
	second := readTxn(t, fc, 2)
	resp := status(t, fc, 3, replicaEnd{TxnID: first}, replicaEnd{TxnID: first}, replicaEnd{TxnID: first, Abort: true},
		replicaEnd{TxnID: second + 1000}, replicaEnd{TxnID: 0, Abort: true})
	if resp.Active != 1 {
		t.Fatalf("%d open after ending the first read, then it again, then unknown IDs; want the second still open", resp.Active)
	}
	if c, a := count(opCommit), count(opAbort); c != 3 || a != 2 {
		t.Fatalf("request counter: commit %d, abort %d; want each end counted (3 and 2)", c, a)
	}
	// The second read is untouched: it still answers a statement.
	var exec replicaResponse
	if err := fc.send(&replicaRequest{Seq: 4, Op: opExec, TxnID: second, SQL: `SELECT v FROM kv WHERE k = 2`}); err != nil {
		t.Fatal(err)
	}
	if err := fc.recv(&exec); err != nil || exec.Err != "" {
		t.Fatalf("the second read after the stray ends: %+v, %v", exec, err)
	}
	if resp := status(t, fc, 5, replicaEnd{TxnID: second}); resp.Active != 0 {
		t.Fatalf("%d open after the second read's end", resp.Active)
	}
}

// TestFailedExchangeDropsEnds: ends go with the request that took them.
// When its exchange fails they are dropped, never carried again: the
// transaction stays open at the replica.
func TestFailedExchangeDropsEnds(t *testing.T) {
	d := newDeployment(t, 1, core.Coarse)
	addr := d.repSrvs[0].Addr()
	var refuse atomic.Bool
	refuse.Store(true)
	dial := func(network, a string) (net.Conn, error) {
		if refuse.Load() {
			return nil, errors.New("refused by the test")
		}
		return net.Dial(network, a)
	}
	o := buildOptions([]Option{WithDialer(dial)})
	rr := newRemoteReplica(0, addr, &o, lb.New(core.Coarse, nil))
	defer rr.pool.close()

	fc := rawPeer(t, addr, bareHello(linkReplica))
	id := readTxn(t, fc, 1)
	rr.hold(id, false, 0)
	if err := rr.call(&replicaRequest{Op: opStatus}, new(replicaResponse)); err == nil {
		t.Fatal("the exchange succeeded over a refusing dialer")
	}
	refuse.Store(false)
	rr.probe()
	if !rr.healthy.Load() || rr.holding() {
		t.Fatalf("after the refused exchange and a good probe: healthy %v, holding %v", rr.healthy.Load(), rr.holding())
	}
	if n := d.replicas[0].Active(); n != 1 {
		t.Fatalf("replica has %d open, want the read whose end was dropped", n)
	}
	if resp := status(t, fc, 2, replicaEnd{TxnID: id}); resp.Active != 0 {
		t.Fatalf("%d open after ending the read directly", resp.Active)
	}
}

// TestHeldEndExcisedFromStages: the time the gateway held a read's end
// is not Queries time. The end is held past 50ms; the replica's Queries
// stage is the statement's, and Commit keeps its own length.
func TestHeldEndExcisedFromStages(t *testing.T) {
	d := newDeployment(t, 1, core.Coarse)
	finished := make(chan metrics.Timeline, 1)
	d.replicas[0].OnFinish(func(tl metrics.Timeline, committed, readOnly bool) {
		if committed && readOnly {
			finished <- tl
		}
	})
	o := buildOptions(nil)
	rr := newRemoteReplica(0, d.repSrvs[0].Addr(), &o, lb.New(core.Coarse, nil))
	defer rr.pool.close()
	var resp replicaResponse
	err := rr.call(&replicaRequest{Begin: true, Op: opExec, SQL: `SELECT v FROM kv WHERE k = 1`}, &resp)
	if err != nil || !resp.Commit.ReadOnly {
		t.Fatalf("read: %+v, %v", resp, err)
	}
	const hold = 60 * time.Millisecond
	rr.hold(resp.TxnID, false, 0)
	time.Sleep(hold)
	start := time.Now()
	rr.probe()
	carried := time.Since(start)
	tl := <-finished
	if q := tl.Stage(metrics.StageQueries); q >= hold-10*time.Millisecond {
		t.Fatalf("Queries stage %v holds the %v the end was held", q, hold)
	}
	if c := tl.Stage(metrics.StageCommit); c <= 0 || c > carried {
		t.Fatalf("Commit stage %v, want positive and within the %v exchange that carried it", c, carried)
	}
}

// TestStaleTxnIDAfterRestartEndsNothing: transaction IDs do not repeat
// across server incarnations. An end naming a transaction of the server
// that last listened on an address — as a request retried on a fresh
// dial after a restart would carry — ends nothing at the new one.
func TestStaleTxnIDAfterRestartEndsNothing(t *testing.T) {
	d := newDeployment(t, 1, core.Coarse)
	addr := d.repSrvs[0].Addr()
	old := rawPeer(t, addr, bareHello(linkReplica))
	stale := readTxn(t, old, 1)
	d.repSrvs[0].Close()
	srv, err := ServeReplica(d.replicas[0], addr)
	if err != nil {
		t.Fatal(err)
	}
	d.repSrvs[0] = srv // closed by the deployment's cleanup
	fc := rawPeer(t, addr, bareHello(linkReplica))
	fresh := readTxn(t, fc, 1)
	if fresh == stale {
		t.Fatalf("the restarted server issued TxnID %d again", fresh)
	}
	status(t, fc, 2, replicaEnd{TxnID: stale})
	var exec replicaResponse
	if err := fc.send(&replicaRequest{Seq: 3, Op: opExec, TxnID: fresh, SQL: `SELECT v FROM kv WHERE k = 2`}); err != nil {
		t.Fatal(err)
	}
	if err := fc.recv(&exec); err != nil || exec.Err != "" {
		t.Fatalf("the new server's read after a stale end: %+v, %v", exec, err)
	}
}
