package cluster

import (
	"bytes"
	"testing"
	"time"

	"sconrep/internal/core"
	"sconrep/internal/pstore"
)

// newDurableCluster builds a cluster whose replicas run on persistent
// backends under cfg.DataDir.
func newDurableCluster(t *testing.T, cfg Config) *Cluster {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.LoadData(loadCounter); err != nil {
		t.Fatal(err)
	}
	c.RegisterTxn("readCounter", readCounter)
	c.RegisterTxn("bumpCounter", bumpCounter)
	t.Cleanup(c.Close)
	return c
}

// bumpN commits n counter increments through the session, retrying
// transient routing errors (a just-killed replica can eat a dispatch).
func bumpN(t *testing.T, s *Session, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		for attempt := 0; ; attempt++ {
			tx, err := s.Begin("bumpCounter")
			if err == nil {
				if _, err = tx.Exec(bumpCounter, int64(i%16)); err == nil {
					if _, err = tx.Commit(); err == nil {
						break
					}
				} else {
					tx.Abort()
				}
			}
			if attempt >= 5 {
				t.Fatalf("commit %d failed after retries: %v", i, err)
			}
		}
	}
}

// waitAllAt blocks until every replica has applied version v.
func waitAllAt(t *testing.T, c *Cluster, v uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		behind := -1
		for i := 0; i < c.NumReplicas(); i++ {
			if c.Replica(i).Version() < v {
				behind = i
				break
			}
		}
		if behind < 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica %d stuck at %d, want %d", behind, c.Replica(behind).Version(), v)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRecoveryEquivalenceModes is the recovery-equivalence acceptance
// check across all four consistency modes: a durable replica is killed
// without warning, the cluster makes progress, the replica comes back
// through the disk-restart path (checkpoint + WAL suffix + certifier
// backfill), and once converged its state must be byte-identical to a
// peer that never crashed.
func TestRecoveryEquivalenceModes(t *testing.T) {
	for _, mode := range []core.Mode{core.Eager, core.Coarse, core.Fine, core.Session} {
		t.Run(mode.String(), func(t *testing.T) {
			c := newDurableCluster(t, Config{
				Replicas: 3, Mode: mode, Seed: 11,
				DataDir: t.TempDir(), CheckpointEvery: 8,
			})
			s := c.NewSession()
			defer s.Close()
			const victim = 2

			// Traffic, then a forced fuzzy checkpoint on the victim so
			// restart has a snapshot to restore from.
			bumpN(t, s, 10)
			waitAllAt(t, c, c.Certifier().Version())
			if err := c.Store(victim).CheckpointNow(); err != nil {
				t.Fatal(err)
			}
			ckptV := c.Store(victim).Stats().CheckpointVersion
			if ckptV == 0 {
				t.Fatal("checkpoint did not advance")
			}
			bumpN(t, s, 6)

			// Kill -9 and keep committing while the victim is down.
			c.KillReplica(victim)
			bumpN(t, s, 8)

			if err := c.RestartReplica(victim); err != nil {
				t.Fatal(err)
			}
			if got := c.Store(victim).Stats().RecoveredVersion; got < ckptV {
				t.Fatalf("restart recovered to %d, below checkpoint %d — snapshot not used", got, ckptV)
			}

			// The restarted replica serves again.
			bumpN(t, s, 4)
			final := c.Certifier().Version()
			waitAllAt(t, c, final)

			want, err := pstore.SnapshotAt(c.Replica(0).Engine(), final)
			if err != nil {
				t.Fatal(err)
			}
			for i := 1; i < c.NumReplicas(); i++ {
				got, err := pstore.SnapshotAt(c.Replica(i).Engine(), final)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(want, got) {
					t.Fatalf("replica %d state differs from never-crashed replica 0 at version %d", i, final)
				}
			}
		})
	}
}

// TestRestartFailsLoudlyOnTrimmedHistory: when the certifier's history
// was trimmed above a killed replica's restore point, the disk restart
// cannot be backfilled. RestartReplica must fail loudly and leave the
// replica detached — never serve silently diverged data.
func TestRestartFailsLoudlyOnTrimmedHistory(t *testing.T) {
	c := newDurableCluster(t, Config{
		Replicas: 2, Mode: core.Coarse, Seed: 3,
		DataDir: t.TempDir(), CheckpointEvery: 64,
	})
	s := c.NewSession()
	defer s.Close()

	bumpN(t, s, 2)
	waitAllAt(t, c, c.Certifier().Version())
	c.KillReplica(1)
	bumpN(t, s, 6)

	// Trim everything but the newest version: the killed replica's
	// missing suffix is gone.
	c.Certifier().TrimBelow(c.Certifier().Version() - 1)

	if err := c.RestartReplica(1); err == nil {
		t.Fatal("RestartReplica succeeded over a trimmed history gap")
	}
	if !c.Replica(1).Crashed() {
		t.Fatal("replica serving after a failed restart")
	}
}

// TestRestartKeepsOneStore: a disk restart replaces a node's store, and
// the cluster keeps no copy of its own to go stale — the node and the
// cluster name the same, live store, and a checkpoint taken on it is the
// one the cluster reports.
func TestRestartKeepsOneStore(t *testing.T) {
	c := newDurableCluster(t, Config{
		Replicas: 2, Mode: core.Coarse, Seed: 5,
		DataDir: t.TempDir(), CheckpointEvery: 64,
	})
	s := c.NewSession()
	defer s.Close()
	const victim = 1

	bumpN(t, s, 4)
	waitAllAt(t, c, c.Certifier().Version())
	abandoned := c.Store(victim)
	c.KillReplica(victim)
	bumpN(t, s, 4)
	if err := c.RestartReplica(victim); err != nil {
		t.Fatal(err)
	}
	st := c.nodes[victim].Store()
	if st == abandoned {
		t.Fatal("the node still holds the store its kill abandoned")
	}
	if st != c.Store(victim) {
		t.Fatal("the node and the cluster name different stores after a restart")
	}
	waitAllAt(t, c, c.Certifier().Version())
	if err := st.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	if got, want := c.Store(victim).Stats().CheckpointCount, st.Stats().CheckpointCount; got != want || want == 0 {
		t.Fatalf("cluster reports %d checkpoints, the restarted store took %d", got, want)
	}
}
