// Chaos harness: seeded fault-injected TPC-W runs over the networked
// cluster, validated against the history oracle in all four
// consistency modes.
//
// Controls:
//
//	SCONREP_CHAOS_SEEDS=<n>  run n seeds per mode (default 2; CI runs 8)
//	SCONREP_CHAOS_SEED=<s>   replay exactly one seed (overrides SEEDS)
//
// A failing run prints the SCONREP_CHAOS_SEED line that replays its
// fault schedule.
package cluster_test

import (
	"fmt"
	"os"
	"strconv"
	"sync"
	"testing"
	"time"

	"sconrep/internal/cluster"
	"sconrep/internal/core"
	"sconrep/internal/fault"
	"sconrep/internal/history"
	"sconrep/internal/storage"
	"sconrep/internal/wire"
	"sconrep/internal/workload/tpcw"
)

const chaosReplicas = 3

func chaosSeeds() []int64 {
	if s := os.Getenv("SCONREP_CHAOS_SEED"); s != "" {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			panic(fmt.Sprintf("bad SCONREP_CHAOS_SEED %q: %v", s, err))
		}
		return []int64{n}
	}
	count := 2
	if s := os.Getenv("SCONREP_CHAOS_SEEDS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 1 {
			panic(fmt.Sprintf("bad SCONREP_CHAOS_SEEDS %q", s))
		}
		count = n
	}
	seeds := make([]int64, count)
	for i := range seeds {
		seeds[i] = int64(1000 + 97*i)
	}
	return seeds
}

func TestChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos harness skipped in -short mode")
	}
	seeds := chaosSeeds()
	for _, mode := range []core.Mode{core.Eager, core.Coarse, core.Fine, core.Session} {
		t.Run(mode.String(), func(t *testing.T) {
			for _, seed := range seeds {
				t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
					runChaos(t, mode, seed, 1)
				})
			}
		})
	}
}

// TestChaosSharded is the same fault schedule over a 4-shard certifier
// (TPC-W shard map, full subscriptions): concurrent per-shard
// sequencers plus the cross-shard reserve/seal handshake must preserve
// every guarantee the single-sequencer configuration sells, and the
// version-order oracle additionally checks that the global counter
// stayed dense and monotone across sequencers.
func TestChaosSharded(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos harness skipped in -short mode")
	}
	seeds := chaosSeeds()
	for _, mode := range []core.Mode{core.Eager, core.Coarse, core.Fine, core.Session} {
		t.Run(mode.String(), func(t *testing.T) {
			for _, seed := range seeds {
				t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
					runChaos(t, mode, seed, tpcw.ShardCount)
				})
			}
		})
	}
}

func runChaos(t *testing.T, mode core.Mode, seed int64, shards int) {
	test := "TestChaos"
	if shards > 1 {
		test = "TestChaosSharded"
	}
	replay := fmt.Sprintf("replay: SCONREP_CHAOS_SEED=%d go test -race -run '%s/%s' ./internal/cluster/", seed, test, mode)

	inj := fault.New(seed, fault.Config{
		DialFailProb:  0.05,
		DelayProb:     0.10,
		MaxDelay:      2 * time.Millisecond,
		DropProb:      0.015,
		DupProb:       0.003,
		HalfCloseProb: 0.003,
	})
	// Clean bring-up and load; noise starts with the workload.
	inj.SetActive(false)

	// Timing discipline: the replica serve gate must close (Idle plus a
	// quarter of the lease) before the certifier stops waiting for a
	// partitioned subscriber (SubLease) — NewNetworked refuses it
	// otherwise — and the client call timeout must outlast an eager
	// commit stalled for a full lease.
	ncfg := cluster.NetConfig{
		DialerFor: func(link string) wire.Dialer {
			return wire.Dialer(inj.Dialer(link, nil))
		},
		Timeouts: wire.Timeouts{Call: 3 * time.Second, Idle: 400 * time.Millisecond},
		Backoff:  wire.Backoff{Min: 5 * time.Millisecond, Max: 80 * time.Millisecond},
		SubLease: 2 * time.Second,
	}
	cfg := cluster.Config{
		Replicas:      chaosReplicas,
		Mode:          mode,
		Seed:          seed,
		RecordHistory: true,
	}
	if shards > 1 {
		cfg.Shards = shards
		cfg.ShardTables = tpcw.ShardMap
	}
	c, err := cluster.NewNetworked(cfg, ncfg)
	if err != nil {
		t.Fatalf("%v\n%s", err, replay)
	}
	defer c.Close()

	scale := tpcw.Scale{Items: 50, Customers: 20, Seed: 42}
	if err := c.LoadData(func(e *storage.Engine) error { return tpcw.Load(e, scale) }); err != nil {
		t.Fatalf("%v\n%s", err, replay)
	}
	tpcw.RegisterAll(c)

	// Fault phase: probabilistic noise on every link plus a partition
	// agitator cycling through certifier links, replica links, and the
	// client link.
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

	// Mid-run whole-process failure on top of the link noise: crash
	// replica 2, then recover it while traffic continues.
	victim := c.Replica(chaosReplicas - 1)
	time.Sleep(400 * time.Millisecond)
	victim.Crash()
	time.Sleep(400 * time.Millisecond)
	recoverDeadline := time.Now().Add(10 * time.Second)
	for {
		if err := victim.Recover(); err == nil {
			break
		}
		if time.Now().After(recoverDeadline) {
			t.Fatalf("replica never recovered\n%s", replay)
		}
		time.Sleep(20 * time.Millisecond)
	}
	time.Sleep(400 * time.Millisecond)

	// Keep traffic flowing until the run produced enough events to be
	// meaningful: a hostile schedule can park every browser in a
	// blocked call (the 3s call timeout exceeds a fixed window), which
	// would make the oracle pass vacuously.
	extendDeadline := time.Now().Add(8 * time.Second)
	for c.Recorder().Len() < 10 && time.Now().Before(extendDeadline) {
		time.Sleep(50 * time.Millisecond)
	}

	close(stop)
	wg.Wait()
	<-agDone
	inj.RestoreAll()
	inj.SetActive(false)

	// Convergence: with faults healed and traffic stopped, every
	// replica must reach the certifier's final version.
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
			break
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
	t.Logf("mode=%s seed=%d: %d interactions, %d committed txns, final version %d", mode, seed, total, len(events), target)
	if len(events) < 10 {
		t.Fatalf("only %d events recorded — chaos run was vacuous\n%s", len(events), replay)
	}

	// The oracle: the guarantees each mode sells must hold under the
	// full fault schedule.
	//
	// Version order first: it is mode-independent and, with Shards > 1,
	// the invariant sharded certification most directly endangers —
	// concurrent sequencers must still assign one dense global order.
	if v := history.CheckVersionOrder(events); len(v) != 0 {
		t.Errorf("%d version-order violations, first: %v\n%s", len(v), v[0], replay)
	}
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
	// Version-level snapshot monotonicity is the scalar session floor's
	// guarantee: only the modes whose start rule folds it (CSC, SC)
	// promise it. FSC synchronizes per table — its session guarantee is
	// the table-aware CheckSession above plus the per-table floors, and
	// its snapshots may legitimately regress version-wise on cold
	// tables. ESC starts immediately and was always exempt.
	if mode == core.Coarse || mode == core.Session {
		if v := history.CheckMonotonicSessions(events); len(v) != 0 {
			t.Errorf("%d monotonic-session violations, first: %v\n%s", len(v), v[0], replay)
		}
	}
}
