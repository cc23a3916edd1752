// Crash-recovery chaos: seeded fault-injected TPC-W runs over the
// networked cluster with DURABLE replicas, where the victim replica is
// repeatedly kill -9'd (process death + abandoned store) and brought
// back through the disk-restart path — kill mid-apply, kill
// mid-checkpoint, and a torn WAL tail. Each run validates the history
// oracle for its mode plus byte-identical recovery equivalence against
// the never-crashed replicas.
//
// Same seed controls as TestChaos (SCONREP_CHAOS_SEED / _SEEDS). The
// name deliberately does not extend TestChaos: the chaos CI job runs
// -run TestChaos, the recovery job runs -run TestCrashRecovery.
package cluster_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"

	"sconrep/internal/cluster"
	"sconrep/internal/core"
	"sconrep/internal/fault"
	"sconrep/internal/history"
	"sconrep/internal/pstore"
	"sconrep/internal/storage"
	"sconrep/internal/wire"
	"sconrep/internal/workload/tpcw"
)

func TestCrashRecoveryChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("crash-recovery chaos skipped in -short mode")
	}
	seeds := chaosSeeds()
	for _, mode := range []core.Mode{core.Eager, core.Coarse, core.Fine, core.Session} {
		t.Run(mode.String(), func(t *testing.T) {
			for _, seed := range seeds {
				t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
					runCrashRecoveryChaos(t, mode, seed)
				})
			}
		})
	}
}

// restartRetry drives RestartReplica until it succeeds: under active
// link faults the recovery backfill can transiently fail, which is the
// retry-until-healthy loop a real operator (or supervisor) runs.
func restartRetry(t *testing.T, c *cluster.Cluster, i int, replay string) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		err := c.RestartReplica(i)
		if err == nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica %d never restarted: %v\n%s", i, err, replay)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// tearWALTail truncates a few bytes off the newest WAL segment of the
// (killed) replica's data directory, simulating a torn final frame
// from a power cut. Recovery must discard the tail and backfill it.
func tearWALTail(t *testing.T, dataDir string, id int, replay string) {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dataDir, fmt.Sprintf("replica-%d", id), "wal-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no WAL segments to tear (err=%v)\n%s", err, replay)
	}
	sort.Strings(segs) // zero-padded bases: lexical order is numeric
	newest := segs[len(segs)-1]
	fi, err := os.Stat(newest)
	if err != nil {
		t.Fatalf("%v\n%s", err, replay)
	}
	if fi.Size() == 0 {
		return
	}
	cut := fi.Size() - 5
	if cut < 0 {
		cut = 0
	}
	if err := os.Truncate(newest, cut); err != nil {
		t.Fatalf("%v\n%s", err, replay)
	}
}

func runCrashRecoveryChaos(t *testing.T, mode core.Mode, seed int64) {
	replay := fmt.Sprintf("replay: SCONREP_CHAOS_SEED=%d go test -race -run 'TestCrashRecoveryChaos/%s' ./internal/cluster/", seed, mode)

	inj := fault.New(seed, fault.Config{
		DialFailProb:  0.05,
		DelayProb:     0.10,
		MaxDelay:      2 * time.Millisecond,
		DropProb:      0.015,
		DupProb:       0.003,
		HalfCloseProb: 0.003,
	})
	inj.SetActive(false)

	ncfg := cluster.NetConfig{
		DialerFor: func(link string) wire.Dialer {
			return wire.Dialer(inj.Dialer(link, nil))
		},
		Timeouts: wire.Timeouts{Call: 3 * time.Second, Idle: 400 * time.Millisecond},
		Backoff:  wire.Backoff{Min: 5 * time.Millisecond, Max: 80 * time.Millisecond},
		SubLease: 2 * time.Second,
	}
	dataDir := t.TempDir()
	c, err := cluster.NewNetworked(cluster.Config{
		Replicas:      chaosReplicas,
		Mode:          mode,
		Seed:          seed,
		RecordHistory: true,
		DataDir:       dataDir,
		// Small interval: the run must cross several checkpoint
		// rotations so restarts exercise restore + replay, not replay
		// from genesis.
		CheckpointEvery: 24,
	}, ncfg)
	if err != nil {
		t.Fatalf("%v\n%s", err, replay)
	}
	defer c.Close()

	scale := tpcw.Scale{Items: 50, Customers: 20, Seed: 42}
	if err := c.LoadData(func(e *storage.Engine) error { return tpcw.Load(e, scale) }); err != nil {
		t.Fatalf("%v\n%s", err, replay)
	}
	tpcw.RegisterAll(c)

	inj.SetActive(true)
	labels := []string{cluster.LinkClient}
	for i := 0; i < chaosReplicas; i++ {
		labels = append(labels, cluster.CertLink(i), cluster.ReplicaLink(i))
	}
	stop := make(chan struct{})
	agDone := make(chan struct{})
	go func() {
		defer close(agDone)
		inj.Agitate(stop, labels, 120*time.Millisecond, 80*time.Millisecond)
	}()

	const ebs = 6
	mix := tpcw.ShoppingMix()
	var wg sync.WaitGroup
	counts := make([]int, ebs)
	for i := 0; i < ebs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			eb := &tpcw.EB{Mix: mix, Scale: scale, ThinkTime: 2 * time.Millisecond, Retries: 2}
			counts[i] = eb.Run(c, i, stop)
		}(i)
	}

	const victim = chaosReplicas - 1
	var bg sync.WaitGroup

	// Scenario 1 — kill -9 mid-apply: the victim dies while refresh
	// traffic is streaming into it, losing the unforced WAL tail.
	time.Sleep(300 * time.Millisecond)
	c.KillReplica(victim)
	time.Sleep(300 * time.Millisecond)
	restartRetry(t, c, victim, replay)

	// Scenario 2 — kill -9 mid-checkpoint: force a fuzzy checkpoint and
	// kill while it races the snapshot write, leaving a .tmp the next
	// open must discard.
	time.Sleep(200 * time.Millisecond)
	if st := c.Store(victim); st != nil {
		bg.Add(1)
		go func() {
			defer bg.Done()
			_ = st.CheckpointNow() // aborted by the kill below — error expected
		}()
	}
	c.KillReplica(victim)
	time.Sleep(300 * time.Millisecond)
	restartRetry(t, c, victim, replay)

	// Scenario 3 — torn WAL tail: kill, then corrupt the newest segment
	// the way a power cut would (partial final frame).
	time.Sleep(200 * time.Millisecond)
	c.KillReplica(victim)
	tearWALTail(t, dataDir, victim, replay)
	time.Sleep(200 * time.Millisecond)
	restartRetry(t, c, victim, replay)

	// Keep traffic flowing until the run produced enough events to be
	// meaningful (see TestChaos).
	extendDeadline := time.Now().Add(8 * time.Second)
	for c.Recorder().Len() < 10 && time.Now().Before(extendDeadline) {
		time.Sleep(50 * time.Millisecond)
	}

	close(stop)
	wg.Wait()
	<-agDone
	bg.Wait()
	inj.RestoreAll()
	inj.SetActive(false)

	// Convergence with faults healed. The target is re-read until the
	// certifier's version holds still with every replica at it: a commit
	// certified after the clients stopped moves an idle engine's
	// collection horizon past an older target, below which SnapshotAt
	// fails with ErrPruned. Such late commits are logged.
	target := c.Certifier().Version()
	convergeDeadline := time.Now().Add(20 * time.Second)
	for {
		caughtUp := true
		for i := 0; i < chaosReplicas; i++ {
			if c.Replica(i).Crashed() || c.Replica(i).Version() < target {
				caughtUp = false
				break
			}
		}
		if caughtUp {
			v := c.Certifier().Version()
			if v == target {
				break
			}
			for _, late := range c.Certifier().History(target) {
				t.Logf("commit certified after the clients stopped: version %d, origin replica %d, txn %d", late.Version, late.Origin, late.TxnID)
			}
			target = v
			continue
		}
		if time.Now().After(convergeDeadline) {
			vs := make([]uint64, chaosReplicas)
			for i := range vs {
				vs[i] = c.Replica(i).Version()
			}
			t.Fatalf("replicas %v never converged to certifier version %d\n%s", vs, target, replay)
		}
		time.Sleep(5 * time.Millisecond)
	}

	total := 0
	for _, n := range counts {
		total += n
	}
	events := c.Recorder().Events()
	t.Logf("mode=%s seed=%d: %d interactions, %d committed txns, final version %d, checkpoint %d",
		mode, seed, total, len(events), target, c.Store(victim).Stats().CheckpointVersion)
	if len(events) < 10 {
		t.Fatalf("only %d events recorded — run was vacuous\n%s", len(events), replay)
	}

	// The mode's oracle must hold across all three kill/restart cycles.
	if mode.Strong() {
		if v := history.CheckStrong(events); len(v) != 0 {
			t.Errorf("%d strong-consistency violations, first: %v\n%s", len(v), v[0], replay)
		}
	}
	if mode == core.Session || mode == core.Fine {
		if v := history.CheckSession(events); len(v) != 0 {
			t.Errorf("%d session violations, first: %v\n%s", len(v), v[0], replay)
		}
	}
	if mode == core.Coarse || mode == core.Session {
		if v := history.CheckMonotonicSessions(events); len(v) != 0 {
			t.Errorf("%d monotonic-session violations, first: %v\n%s", len(v), v[0], replay)
		}
	}

	// Recovery equivalence: the thrice-killed replica must be
	// byte-identical to the never-crashed ones at the converged version.
	want, err := pstore.SnapshotAt(c.Replica(0).Engine(), target)
	if err != nil {
		t.Fatalf("%v\n%s", err, replay)
	}
	for i := 1; i < chaosReplicas; i++ {
		got, err := pstore.SnapshotAt(c.Replica(i).Engine(), target)
		if err != nil {
			t.Fatalf("%v\n%s", err, replay)
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("replica %d state differs from never-crashed replica 0 at version %d\n%s", i, target, replay)
		}
	}
}
