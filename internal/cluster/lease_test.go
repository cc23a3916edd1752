package cluster

import (
	"net"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"sconrep/internal/core"
	"sconrep/internal/fault"
	"sconrep/internal/replica"
	"sconrep/internal/wire"
)

// TestLeaseRule: under ESC the certifier stops waiting for a replica
// whose stream dropped once its lease runs out, so the replica must have
// stopped serving by then. The replica serves for a quarter of the lease
// the certifier sent after it notices the drop, which it does at most
// Idle after the stream's last frame; a configuration where that is not
// below the lease is refused, and before any lease the replica does not
// serve at all.
func TestLeaseRule(t *testing.T) {
	t.Run("refused", func(t *testing.T) {
		_, err := NewNetworked(Config{Replicas: 1, Mode: core.Eager}, NetConfig{
			Timeouts: wire.Timeouts{Idle: 400 * time.Millisecond},
			SubLease: 400 * time.Millisecond,
		})
		if err == nil || strings.Count(err.Error(), "400ms") < 2 {
			t.Fatalf("NewNetworked with Idle 400ms under a 400ms lease: %v; want an error naming both", err)
		}
	})

	t.Run("gate closes before the lease", func(t *testing.T) {
		inj := fault.New(1, fault.Config{})
		c := newNetClusterWith(t, core.Eager, func(n *NetConfig) {
			n.Timeouts.Idle = 200 * time.Millisecond
			n.SubLease = time.Second
			n.DialerFor = func(link string) wire.Dialer { return wire.Dialer(inj.Dialer(link, nil)) }
		})
		defer inj.RestoreAll()
		subscribed := func() bool { return slices.Contains(c.cert.Replicas(), 1) }
		waitUntil(t, "every gate open", func() bool {
			return c.nodes[0].serving() && c.nodes[1].serving() && c.nodes[2].serving()
		})

		inj.Cut(CertLink(1))
		waitUntil(t, "replica 1's gate to close", func() bool { return !c.nodes[1].serving() })
		if !subscribed() {
			t.Fatal("the certifier dropped replica 1 before its gate closed")
		}

		done := make(chan error, 1)
		go func() {
			s := c.SessionWithID("eager")
			defer s.Close()
			tx, err := s.Begin("")
			if err == nil {
				if _, err = tx.ExecSQL(`UPDATE kv SET v = 'cut' WHERE k = 1`); err == nil {
					_, err = tx.Commit()
				}
			}
			done <- err
		}()
		// The commit must wait out replica 1's lease: it may complete only
		// once the certifier has dropped replica 1. done is read before
		// Replicas, so a commit seen complete while replica 1 is still
		// subscribed completed before the drop.
		deadline := time.Now().Add(10 * time.Second)
		for {
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
				if subscribed() {
					t.Fatal("eager commit completed while the certifier still waited for replica 1")
				}
				return
			default:
			}
			if time.Now().After(deadline) {
				t.Fatal("eager commit did not complete after replica 1's lease")
			}
			time.Sleep(time.Millisecond)
		}
	})

	t.Run("no subAck, no serving", func(t *testing.T) {
		c := newNetCluster(t, core.Coarse)
		// A certifier that accepts and never answers.
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		var mu sync.Mutex
		var held []net.Conn
		defer func() {
			ln.Close()
			mu.Lock()
			defer mu.Unlock()
			for _, conn := range held {
				conn.Close()
			}
		}()
		go func() {
			for {
				conn, err := ln.Accept()
				if err != nil {
					return
				}
				mu.Lock()
				held = append(held, conn)
				mu.Unlock()
			}
		}()
		// A fourth replica on the cluster's own wire configuration, pointed
		// at that certifier. The short call bounds its subscribe attempts
		// and the unsubscribe its Close tries.
		ncfg := c.ncfg
		ncfg.Timeouts.Call = 100 * time.Millisecond
		n, err := StartReplica(ReplicaConfig{
			Replica:   replica.Config{ID: 3},
			Listen:    "127.0.0.1:0",
			Certifier: ln.Addr().String(),
			Net:       ncfg,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer n.Close()
		for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); time.Sleep(time.Millisecond) {
			if n.serving() {
				t.Fatal("replica serves before any subAck gave it a floor and a lease")
			}
		}
	})
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}
