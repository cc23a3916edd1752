package cluster

import (
	"fmt"
	"net"
	"testing"
	"time"

	"sconrep/internal/core"
	"sconrep/internal/obs"
	"sconrep/internal/obs/dtrace"
	"sconrep/internal/replica"
	"sconrep/internal/wire"
)

// slowReadConn delays every read by d: what a read returns reaches the
// caller d after it arrived.
type slowReadConn struct {
	net.Conn
	d time.Duration
}

func (c slowReadConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	time.Sleep(c.d)
	return n, err
}

// TestRestartedGatewayKeepsStrongReads is Definition 1 across a
// gateway restart. Replica 1's certifier link delays every read by
// 2 ms, so it applies each commit after replica 0 does. Each of 200
// rounds writes through a gateway that routes to replica 0 only and
// closes it, then starts a new gateway over both replicas, listing the
// lagging one first so that its first transaction goes there, and reads
// from another session. The new gateway saw none of the commits; the
// first status answers seed its tracker (core.Tracker.Seed), so no read
// may be stale, under CSC or FSC.
func TestRestartedGatewayKeepsStrongReads(t *testing.T) {
	for _, mode := range []core.Mode{core.Coarse, core.Fine} {
		t.Run(mode.String(), func(t *testing.T) {
			const rounds = 200
			if n := restartedGatewayStaleReads(t, mode, rounds); n != 0 {
				t.Errorf("%d of %d strong reads through a restarted gateway were stale", n, rounds)
			}
		})
	}
}

// restartedGatewayStaleReads runs the rounds TestRestartedGatewayKeepsStrongReads
// describes and returns how many reads were stale.
func restartedGatewayStaleReads(t *testing.T, mode core.Mode, rounds int) int {
	t.Helper()
	ncfg := NetConfig{
		Timeouts: wire.Timeouts{Call: 5 * time.Second, Idle: 2 * time.Second},
		Backoff:  wire.Backoff{Min: 5 * time.Millisecond, Max: 100 * time.Millisecond},
	}
	cert, err := StartCertifier(CertifierConfig{Listen: "127.0.0.1:0", Net: ncfg})
	if err != nil {
		t.Fatal(err)
	}
	defer cert.Close()
	var addrs [2]string
	for id := range addrs {
		nc := ncfg
		if id == 1 {
			nc.DialerFor = func(link string) wire.Dialer {
				if link != CertLink(1) {
					return nil
				}
				return func(network, addr string) (net.Conn, error) {
					c, err := (&net.Dialer{}).Dial(network, addr)
					if err != nil {
						return nil, err
					}
					return slowReadConn{Conn: c, d: 2 * time.Millisecond}, nil
				}
			}
		}
		r, err := StartReplica(ReplicaConfig{
			Replica:   replica.Config{ID: id, EarlyCert: true},
			Listen:    "127.0.0.1:0",
			Certifier: cert.Addr(),
			Bootstrap: loadAB,
			Net:       nc,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		for deadline := time.Now().Add(10 * time.Second); !r.Health().Ready; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("replica %d never ready", id)
			}
		}
		addrs[id] = r.Addr()
	}
	// session runs one transaction on table a through a gateway over
	// replicas and returns what its statement returned.
	session := func(replicas []string, id, stmt string, reg *obs.Registry) [][]any {
		gw, err := StartGateway(GatewayConfig{Listen: "127.0.0.1:0", Mode: mode, Replicas: replicas, Net: ncfg})
		if err != nil {
			t.Fatal(err)
		}
		defer gw.Close()
		if reg != nil {
			gw.EnableObs(reg)
		}
		if live := gw.Balancer().LiveReplicas(); live != len(replicas) {
			t.Fatalf("gateway started with %d of %d replicas live", live, len(replicas))
		}
		client, err := wire.Dial(gw.Addr(), id, wire.WithTimeouts(ncfg.Timeouts))
		if err != nil {
			t.Fatal(err)
		}
		defer client.Close()
		client.Start("", []string{"a"}, dtrace.SpanContext{})
		res, err := client.Exec(stmt)
		if err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
		if _, _, err := client.Commit(); err != nil {
			t.Fatalf("%s: commit: %v", stmt, err)
		}
		return res.Rows
	}
	stale := 0
	for i := 1; i <= rounds; i++ {
		session(addrs[:1], "writer", fmt.Sprintf(`UPDATE a SET v = %d WHERE id = 1`, i), nil)
		reg := obs.NewRegistry()
		rows := session([]string{addrs[1], addrs[0]}, fmt.Sprintf("reader-%d", i), `SELECT v FROM a WHERE id = 1`, reg)
		if got := routed(reg, 2); got[0] != 1 {
			t.Fatalf("round %d: the read went to %v (lagging replica first), want the lagging replica", i, got)
		}
		if rows[0][0] != int64(i) {
			stale++
		}
	}
	return stale
}
