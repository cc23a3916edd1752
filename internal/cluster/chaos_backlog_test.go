// Chaos leg for the refresh applier's wide schedule. The TPC-W runs of
// chaos_test.go commit a few dozen versions each, so their refresh
// batches stay below the two minimum-length runs a batch needs before
// replica.applyBatch cuts it: they cover the one-run case only. This
// harness makes the backlog deep on purpose — a replica is held down
// until the certifier is a seeded number of versions ahead, then
// recovered into live traffic and link faults — so the batches its
// backfill forms are cut into several concurrently installed runs,
// with cross-run conflict waits and progressive publish, while
// transactions are reading from that replica.
//
// Controls and replay line are those of chaos_test.go.
package cluster_test

import (
	"fmt"
	"math/rand"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"sconrep/internal/cluster"
	"sconrep/internal/core"
	"sconrep/internal/fault"
	"sconrep/internal/history"
	"sconrep/internal/obs"
	"sconrep/internal/sql"
	"sconrep/internal/storage"
	"sconrep/internal/wire"
)

// backlogSlots is small enough that a 64-writeset batch of random
// slots almost surely writes some slot in two different runs (the
// cross-run wait), and large enough that its critical path stays short
// (the batch is cut at all).
const backlogSlots = 192

func loadSlots(e *storage.Engine) error {
	if err := e.CreateTable(&storage.Schema{
		Table:   "slot",
		Columns: []storage.Column{{Name: "id", Type: storage.TInt}, {Name: "n", Type: storage.TInt}},
		Key:     []string{"id"},
	}); err != nil {
		return err
	}
	tx := e.Begin()
	for i := int64(0); i < backlogSlots; i++ {
		if err := tx.Insert("slot", []any{i, int64(0)}); err != nil {
			return err
		}
	}
	_, err := tx.CommitLocal()
	return err
}

var bumpSlot, _ = sql.Prepare(`UPDATE slot SET n = n + 1 WHERE id = ?`)

func TestChaosBacklog(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos harness skipped in -short mode")
	}
	// The applier never cuts a batch into more runs than GOMAXPROCS.
	prev := runtime.GOMAXPROCS(max(4, runtime.GOMAXPROCS(0)))
	defer runtime.GOMAXPROCS(prev)
	seeds := chaosSeeds()
	for _, mode := range []core.Mode{core.Eager, core.Coarse, core.Fine, core.Session} {
		t.Run(mode.String(), func(t *testing.T) {
			for _, seed := range seeds {
				t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
					runChaosBacklog(t, mode, seed)
				})
			}
		})
	}
}

var parallelismSample = regexp.MustCompile(`(?m)^sconrep_replica_apply_parallelism_(count|bucket)\{replica="\d+"(?:,le="([^"]+)")?\} (\d+)$`)

// wideBatches reads off the registry how many refresh batches were cut
// into more than one run: sconrep_replica_apply_parallelism is observed
// only when the cap, GOMAXPROCS and the batch length allowed a second
// run, and a value above 1 means the conflict graph allowed it too.
func wideBatches(reg *obs.Registry) int {
	var sb strings.Builder
	reg.WritePrometheus(&sb)
	wide := 0
	for _, m := range parallelismSample.FindAllStringSubmatch(sb.String(), -1) {
		n, _ := strconv.Atoi(m[3])
		switch {
		case m[1] == "count":
			wide += n
		case m[2] == "1":
			wide -= n
		}
	}
	return wide
}

func runChaosBacklog(t *testing.T, mode core.Mode, seed int64) {
	replay := fmt.Sprintf("replay: SCONREP_CHAOS_SEED=%d go test -race -run 'TestChaosBacklog/%s' ./internal/cluster/", seed, mode)

	// chaos_test.go's noise without the dropped frames: a drop parks a
	// writer for the whole call timeout, and this harness needs commits
	// to keep coming while a replica is down.
	inj := fault.New(seed, fault.Config{
		DialFailProb:  0.05,
		DelayProb:     0.10,
		MaxDelay:      2 * time.Millisecond,
		DupProb:       0.003,
		HalfCloseProb: 0.003,
	})
	inj.SetActive(false)
	ncfg := cluster.NetConfig{
		DialerFor: func(link string) wire.Dialer {
			return wire.Dialer(inj.Dialer(link, nil))
		},
		Timeouts:    wire.Timeouts{Call: 3 * time.Second, LongPoll: 3 * time.Second, Idle: 400 * time.Millisecond},
		Backoff:     wire.Backoff{Min: 5 * time.Millisecond, Max: 80 * time.Millisecond},
		StreamGrace: 500 * time.Millisecond,
		SubLease:    2 * time.Second,
	}
	c, err := cluster.NewNetworked(cluster.Config{
		Replicas:      chaosReplicas,
		Mode:          mode,
		Seed:          seed,
		RecordHistory: true,
		ApplyWorkers:  4,
		MaxApplyBatch: 64,
	}, ncfg)
	if err != nil {
		t.Fatalf("%v\n%s", err, replay)
	}
	defer c.Close()
	if err := c.LoadData(loadSlots); err != nil {
		t.Fatalf("%v\n%s", err, replay)
	}
	c.RegisterTxn("bumpSlot", bumpSlot)
	reg := obs.NewRegistry()
	c.EnableObs(reg, nil)
	v0 := c.Certifier().Version()

	inj.SetActive(true)
	labels := []string{cluster.LinkClient}
	for i := 0; i < chaosReplicas; i++ {
		labels = append(labels, cluster.CertLink(i), cluster.ReplicaLink(i))
	}
	stop := make(chan struct{})
	agDone := make(chan struct{})
	go func() {
		defer close(agDone)
		inj.Agitate(stop, labels, 60*time.Millisecond, 80*time.Millisecond)
	}()

	const writers = 8
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := c.SessionWithID(fmt.Sprintf("w%d", w))
			defer s.Close()
			rng := rand.New(rand.NewSource(seed*31 + int64(w)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				tx, err := s.Begin("bumpSlot")
				if err != nil {
					continue
				}
				if _, err := tx.Exec(bumpSlot, int64(rng.Intn(backlogSlots))); err != nil {
					tx.Abort()
					continue
				}
				_, _ = tx.Commit()
			}
		}(w)
	}

	// Three times: take a replica down, keep it down until the certifier
	// is depth versions ahead of it, bring it back. Its backfill then
	// arrives as one backlog of at least depth refreshes.
	rng := rand.New(rand.NewSource(seed))
	for round := 0; round < 3; round++ {
		victim := c.Replica(rng.Intn(chaosReplicas))
		depth := uint64(80 + rng.Intn(120))
		victim.Crash()
		holdDeadline := time.Now().Add(8 * time.Second)
		for c.Certifier().Version() < victim.Version()+depth && time.Now().Before(holdDeadline) {
			time.Sleep(2 * time.Millisecond)
		}
		recoverDeadline := time.Now().Add(10 * time.Second)
		for victim.Recover() != nil {
			if time.Now().After(recoverDeadline) {
				t.Fatalf("replica never recovered\n%s", replay)
			}
			time.Sleep(20 * time.Millisecond)
		}
		time.Sleep(time.Duration(20+rng.Intn(60)) * time.Millisecond)
	}

	close(stop)
	wg.Wait()
	<-agDone
	inj.RestoreAll()
	inj.SetActive(false)

	target := c.Certifier().Version()
	convergeDeadline := time.Now().Add(20 * time.Second)
	for i := 0; i < chaosReplicas; i++ {
		for c.Replica(i).Crashed() || c.Replica(i).Version() < target {
			if time.Now().After(convergeDeadline) {
				t.Fatalf("replica %d at %d never converged to certifier version %d\n%s", i, c.Replica(i).Version(), target, replay)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	wide := wideBatches(reg)
	events := c.Recorder().Events()
	t.Logf("mode=%s seed=%d: %d committed txns, versions %d..%d, %d refresh batches cut into runs", mode, seed, len(events), v0, target, wide)
	if wide == 0 {
		t.Errorf("no refresh batch was cut into more than one run — the wide schedule went untested\n%s", replay)
	}

	// Every version is exactly one increment of one slot, so at every
	// version every replica's slots must sum to the versions since load:
	// a row version linked out of order, into the wrong chain, or
	// published before an earlier run's install shows up as a snapshot
	// that reads short or long.
	for i := 0; i < chaosReplicas; i++ {
		e := c.Replica(i).Engine()
		for v := v0; v <= target; v++ {
			tx, err := e.BeginAt(v)
			if err != nil {
				t.Fatalf("%v\n%s", err, replay)
			}
			kvs, err := tx.ScanAll("slot")
			if err != nil {
				t.Fatalf("%v\n%s", err, replay)
			}
			var sum int64
			for _, kv := range kvs {
				sum += kv.Row[1].(int64)
			}
			if len(kvs) != backlogSlots || sum != int64(v-v0) {
				t.Fatalf("replica %d at version %d: %d slots summing to %d, want %d and %d\n%s", i, v, len(kvs), sum, backlogSlots, v-v0, replay)
			}
		}
	}

	// The guarantees each mode sells, as in runChaos.
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
	if mode == core.Coarse || mode == core.Session {
		if v := history.CheckMonotonicSessions(events); len(v) != 0 {
			t.Errorf("%d monotonic-session violations, first: %v\n%s", len(v), v[0], replay)
		}
	}
}
