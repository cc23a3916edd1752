package wire

import (
	"net"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"sconrep/internal/core"
	"sconrep/internal/obs/dtrace"
)

// TestOneWayCommitFeedsSessionFloor: a read committed one-way raises the
// session's floor exactly as the answered commit did, though no commit
// response is ever sent. The data was loaded under the balancer's feet
// (version 1, never observed), so the floor the second transaction is
// routed with can only have come from the first one's observation: the
// session version under SC, the read table's per-session version under
// FSC.
func TestOneWayCommitFeedsSessionFloor(t *testing.T) {
	for _, mode := range []core.Mode{core.Session, core.Fine} {
		t.Run(mode.String(), func(t *testing.T) {
			d := newDeployment(t, 2, mode)
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
			if min1 != 0 || snap == 0 {
				t.Fatalf("first read routed with MinVersion %d at snapshot %d, want 0 and the loaded version", min1, snap)
			}
			before := frames.Load()
			info, err := c.CommitEx()
			if err != nil || !info.ReadOnly || info.Version != snap {
				t.Fatalf("commit = %+v, %v", info, err)
			}
			if got := frames.Load() - before; got != 1 {
				t.Fatalf("a read-only commit moved %d client-link frames, want the one it sent", got)
			}
			if min2, _ := routedAt(); min2 < snap {
				t.Fatalf("next transaction routed with MinVersion %d, want >= %d, the snapshot the session read at", min2, snap)
			}
		})
	}
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

// TestOneWayFrameOutOfPlaceClosesSession: only an abort, and the commit
// of an open transaction whose latest response said read-only, may go
// unanswered. The gateway closes the connection on anything else — it
// guesses nothing about a peer that disagrees on who answers what — and
// the close aborts what was open; nothing reaches the certifier.
func TestOneWayFrameOutOfPlaceClosesSession(t *testing.T) {
	const read, write = `SELECT v FROM kv WHERE k = 1`, `UPDATE kv SET v = 'hostile' WHERE k = 1`
	for _, tc := range []struct {
		name   string
		first  *clientRequest // answered, opens the transaction; nil: none
		oneWay clientRequest
	}{
		{"commit after an update", &clientRequest{Begin: true, Op: opExec, SQL: write}, clientRequest{Op: opCommit}},
		{"exec", &clientRequest{Begin: true, Op: opExec, SQL: read}, clientRequest{Op: opExec, SQL: write}},
		{"begin header", nil, clientRequest{Begin: true, Op: opCommit}},
		{"commit with nothing open", nil, clientRequest{Op: opCommit}},
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
			tc.oneWay.Seq, tc.oneWay.OneWay = seq+1, true
			if err := fc.send(&tc.oneWay); err != nil {
				t.Fatal(err)
			}
			expectClosed(t, fc, "a one-way frame out of place")
			d.idle(t)
			if v := d.cert.Version(); v != v0 {
				t.Fatalf("certifier moved from version %d to %d", v0, v)
			}
		})
	}
}

// TestReplicaOneWayCommitOfWriterAborts: a one-way commit has nobody to
// hear a verdict, so a replica never certifies one — a transaction that
// wrote is aborted — and writes nothing back: the next bytes on the
// connection answer the next request.
func TestReplicaOneWayCommitOfWriterAborts(t *testing.T) {
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
	if err := fc.send(&replicaRequest{Seq: 2, Op: opCommit, TxnID: resp.TxnID, OneWay: true}); err != nil {
		t.Fatal(err)
	}
	if err := fc.send(&replicaRequest{Seq: 3, Op: opStatus}); err != nil {
		t.Fatal(err)
	}
	if err := fc.recv(&resp); err != nil || resp.Seq != 3 || resp.Active != 0 {
		t.Fatalf("after the one-way commit: %+v, %v; want the status answer, nothing open", resp, err)
	}
	if v := d.cert.Version(); v != v0 {
		t.Fatalf("certifier moved from version %d to %d: a one-way commit was certified", v0, v)
	}
	if got := snapshotKV(t, d.replicas[0].Engine())[1]; got != "init" {
		t.Fatalf("kv[1] = %q after an aborted one-way commit", got)
	}

	// Any other one-way operation closes the connection.
	if err := fc.send(&replicaRequest{Seq: 4, Op: opStatus, OneWay: true}); err != nil {
		t.Fatal(err)
	}
	expectClosed(t, fc, "a one-way status")
}
