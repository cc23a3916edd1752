// Chaos leg for a deep refresh backlog. The TPC-W runs of chaos_test.go
// commit a few dozen versions each, so a replica there is never more
// than a handful of refreshes behind. This harness makes the backlog
// deep on purpose — a replica is held down until the certifier is a
// seeded number of versions ahead, then recovered into live traffic and
// link faults — so its backfill drains as dozens of back-to-back
// batches, racing the live stream's duplicates, while transactions are
// reading from that replica.
//
// Controls and replay line are those of chaos_test.go.
package cluster_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"sconrep/internal/cluster"
	"sconrep/internal/core"
	"sconrep/internal/fault"
	"sconrep/internal/history"
	"sconrep/internal/sql"
	"sconrep/internal/storage"
	"sconrep/internal/wire"
)

// backlogSlots is small enough that a backlog of 80–200 random slot
// bumps writes most slots more than once, so adjacent batches keep
// extending the same records' version chains.
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
		Timeouts: wire.Timeouts{Call: 3 * time.Second, Idle: 400 * time.Millisecond},
		Backoff:  wire.Backoff{Min: 5 * time.Millisecond, Max: 80 * time.Millisecond},
		SubLease: 2 * time.Second,
	}
	c, err := cluster.NewNetworked(cluster.Config{
		Replicas:      chaosReplicas,
		Mode:          mode,
		Seed:          seed,
		RecordHistory: true,
	}, ncfg)
	if err != nil {
		t.Fatalf("%v\n%s", err, replay)
	}
	defer c.Close()
	if err := c.LoadData(loadSlots); err != nil {
		t.Fatalf("%v\n%s", err, replay)
	}
	c.RegisterTxn("bumpSlot", bumpSlot)
	v0 := c.Certifier().Version()
	// The oracle reads every version on every replica: a transaction
	// open at v0 on each engine keeps them all linked.
	for i := 0; i < chaosReplicas; i++ {
		hold, err := c.Replica(i).Engine().BeginAt(v0)
		if err != nil {
			t.Fatalf("%v\n%s", err, replay)
		}
		defer hold.Abort()
	}

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

	events := c.Recorder().Events()
	t.Logf("mode=%s seed=%d: %d committed txns, versions %d..%d", mode, seed, len(events), v0, target)

	// Every version is exactly one increment of one slot, so at every
	// version every replica's slots must sum to the versions since load:
	// a row version linked out of order or into the wrong chain, or a
	// refresh applied twice or not at all, shows up as a snapshot that
	// reads short or long.
	for i := 0; i < chaosReplicas; i++ {
		e := c.Replica(i).Engine()
		for v := v0; v <= target; v++ {
			tx, err := e.BeginAt(v)
			if err != nil {
				t.Fatalf("%v\n%s", err, replay)
			}
			kvs, err := tx.ScanAll("slot")
			tx.Abort()
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
