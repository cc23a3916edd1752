package cluster

import (
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"sconrep/internal/core"
	"sconrep/internal/wal"
)

// TestCertifierWALRecovery simulates a certifier crash: run update
// traffic against a WAL-backed cluster, then rebuild a fresh certifier
// from the log and verify it resumes exactly where the old one
// stopped — same version, same conflict knowledge.
func TestCertifierWALRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cert.wal")
	log, err := wal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	c, err := New(Config{Replicas: 2, Mode: core.Coarse, Seed: 31, WAL: log})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.LoadData(loadCounter); err != nil {
		t.Fatal(err)
	}
	c.RegisterTxn("bumpCounter", bumpCounter)
	defer c.Close()

	s := c.NewSession()
	committed := 0
	for i := 0; i < 15; i++ {
		tx, err := s.Begin("bumpCounter")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Exec(bumpCounter, int64(i%4)); err != nil {
			tx.Abort()
			continue
		}
		if _, err := tx.Commit(); err == nil {
			committed++
		}
	}
	oldVersion := c.Certifier().Version()
	if committed == 0 || oldVersion == 0 {
		t.Fatalf("no traffic: committed=%d version=%d", committed, oldVersion)
	}

	// "Crash" the certifier and restore a replacement from its log, the
	// way a restarting certifier node does.
	restored, err := reopenCertifier(path)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Version() != oldVersion {
		t.Fatalf("restored version %d, want %d", restored.Version(), oldVersion)
	}
	// The restored conflict index must reject a transaction whose
	// snapshot predates a logged conflicting commit.
	lastWS := c.Certifier().History(oldVersion - 1)
	if len(lastWS) != 1 {
		t.Fatalf("history tail = %d entries", len(lastWS))
	}
	d, err := restored.Certify(0, 999, oldVersion-1, lastWS[0].WS)
	if err != nil || d.Commit {
		t.Fatalf("restored certifier allowed conflicting commit: %+v, %v", d, err)
	}
	// And accept a fresh-snapshot retry.
	d, err = restored.Certify(0, 1000, restored.Version(), lastWS[0].WS)
	if err != nil || !d.Commit {
		t.Fatalf("restored certifier rejected clean commit: %+v, %v", d, err)
	}
}

// TestMaintenanceUnderLoad runs the certifier trim repeatedly while
// traffic flows, verifying nothing breaks, and that once every
// transaction has ended no replica holds its horizon below its version
// (so its installs go on collecting) and the trim leaves the certifier
// no history.
func TestMaintenanceUnderLoad(t *testing.T) {
	c := newCluster(t, Config{Replicas: 2, Mode: core.Coarse, Seed: 37})
	stop := make(chan struct{})
	done := make(chan int, 4)
	for w := 0; w < 3; w++ {
		go func(w int) {
			s := c.SessionWithID(fmt.Sprintf("m%d", w))
			defer s.Close()
			n := 0
			for {
				select {
				case <-stop:
					done <- n
					return
				default:
				}
				tx, err := s.Begin("bumpCounter")
				if err != nil {
					continue
				}
				if _, err := tx.Exec(bumpCounter, int64((w*5+n)%16)); err != nil {
					tx.Abort()
					continue
				}
				if _, err := tx.Commit(); err == nil {
					n++
				}
			}
		}(w)
	}
	for i := 0; i < 10; i++ {
		time.Sleep(20 * time.Millisecond)
		c.VacuumAll()
	}
	close(stop)
	total := 0
	for i := 0; i < 3; i++ {
		total += <-done
	}
	if total == 0 {
		t.Fatal("no commits under maintenance")
	}
	// The sessions closed with their held ends; FlushEnds delivers the
	// gateway's. Chains are collected on install (storage's TestVacuum
	// and TestPruneMatchesUnprunedEngine check them).
	c.FlushEnds()
	waitAllAt(t, c, c.Certifier().Version())
	for i := 0; i < c.NumReplicas(); i++ {
		e := c.Replica(i).Engine()
		if h, v := e.Horizon(), e.Version(); h != v {
			t.Fatalf("replica %d: horizon %d below its version %d with every transaction ended", i, h, v)
		}
	}
	c.VacuumAll()
	if n := len(c.Certifier().History(0)); n != 0 {
		t.Fatalf("%d history entries left by the trim at every replica's horizon (of %d commits)", n, total)
	}
}

// TestEagerSurvivesReplicaCrashMidCommit: a replica crash while eager
// commits are waiting must release the waiters (via the certifier's
// unsubscribe accounting), not deadlock them.
func TestEagerSurvivesReplicaCrashMidCommit(t *testing.T) {
	c := newCluster(t, Config{Replicas: 3, Mode: core.Eager, Seed: 41})
	s := c.NewSession()

	// Prime one commit so everything works.
	tx := mustBegin(t, s, "bumpCounter")
	if _, err := tx.Exec(bumpCounter, int64(0)); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	// Crash a replica, then commit more: waits must resolve without it.
	c.Replica(2).Crash()
	doneCh := make(chan error, 1)
	go func() {
		tx, err := s.Begin("bumpCounter")
		if err != nil {
			doneCh <- err
			return
		}
		if _, err := tx.Exec(bumpCounter, int64(1)); err != nil {
			tx.Abort()
			doneCh <- err
			return
		}
		_, err = tx.Commit()
		doneCh <- err
	}()
	select {
	case err := <-doneCh:
		if err != nil {
			t.Fatalf("eager commit with crashed replica: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("eager commit deadlocked on crashed replica")
	}
}

// TestSessionMonotonicAcrossReplicas: a session alternating between
// replicas must never observe snapshots going backwards, under every
// mode.
func TestSessionMonotonicAcrossReplicas(t *testing.T) {
	for _, mode := range []core.Mode{core.Session, core.Coarse, core.Fine} {
		t.Run(mode.String(), func(t *testing.T) {
			c := newCluster(t, Config{Replicas: 3, Mode: mode, Seed: 43})
			writer := c.SessionWithID("writer")
			reader := c.SessionWithID("reader")
			var last uint64
			for i := 0; i < 15; i++ {
				wtx := mustBegin(t, writer, "bumpCounter")
				if _, err := wtx.Exec(bumpCounter, int64(i%16)); err != nil {
					wtx.Abort()
				} else if _, err := wtx.Commit(); err != nil {
					continue
				}
				rd := mustBegin(t, reader, "readCounter")
				if _, err := rd.Exec(readCounter, int64(i%16)); err != nil {
					t.Fatal(err)
				}
				// The snapshot is the first answer's: nothing is sent at Begin.
				snap := rd.Snapshot()
				if snap == 0 {
					t.Fatal("snapshot 0 after the first statement was answered")
				}
				if _, err := rd.Commit(); err != nil {
					t.Fatal(err)
				}
				if snap < last {
					t.Fatalf("reader snapshot regressed: %d after %d", snap, last)
				}
				last = snap
			}
		})
	}
}
