package cluster

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"sconrep/internal/core"
	"sconrep/internal/history"
	"sconrep/internal/latency"
	"sconrep/internal/replica"
	"sconrep/internal/sql"
	"sconrep/internal/storage"
)

// loadCounter loads a tiny schema: one counter table plus a read-only
// reference table.
func loadCounter(e *storage.Engine) error {
	if err := e.CreateTable(&storage.Schema{
		Table:   "counter",
		Columns: []storage.Column{{Name: "id", Type: storage.TInt}, {Name: "n", Type: storage.TInt}},
		Key:     []string{"id"},
	}); err != nil {
		return err
	}
	if err := e.CreateTable(&storage.Schema{
		Table:   "ref",
		Columns: []storage.Column{{Name: "id", Type: storage.TInt}, {Name: "s", Type: storage.TString}},
		Key:     []string{"id"},
	}); err != nil {
		return err
	}
	tx := e.Begin()
	for i := int64(0); i < 16; i++ {
		if err := tx.Insert("counter", []any{i, int64(0)}); err != nil {
			return err
		}
		if err := tx.Insert("ref", []any{i, "ref"}); err != nil {
			return err
		}
	}
	_, err := tx.CommitLocal()
	return err
}

var (
	readCounter, _  = sql.Prepare(`SELECT n FROM counter WHERE id = ?`)
	bumpCounter, _  = sql.Prepare(`UPDATE counter SET n = n + 1 WHERE id = ?`)
	readRef, _      = sql.Prepare(`SELECT s FROM ref WHERE id = ?`)
	writeCounter, _ = sql.Prepare(`UPDATE counter SET n = ? WHERE id = ?`)
)

func newCluster(t *testing.T, cfg Config) *Cluster {
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
	c.RegisterTxn("readRef", readRef)
	c.RegisterTxn("writeCounter", writeCounter)
	t.Cleanup(c.Close)
	return c
}

func TestClusterBasicFlow(t *testing.T) {
	for _, mode := range []core.Mode{core.Eager, core.Coarse, core.Fine, core.Session} {
		t.Run(mode.String(), func(t *testing.T) {
			c := newCluster(t, Config{Replicas: 3, Mode: mode, Seed: 1})
			s := c.NewSession()
			defer s.Close()

			tx, err := s.Begin("bumpCounter")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := tx.Exec(bumpCounter, int64(1)); err != nil {
				t.Fatal(err)
			}
			res, err := tx.Commit()
			if err != nil {
				t.Fatal(err)
			}
			if res.ReadOnly {
				t.Fatal("update marked read-only")
			}

			// The same session must see its own update on any replica.
			for i := 0; i < 6; i++ {
				tx, err := s.Begin("readCounter")
				if err != nil {
					t.Fatal(err)
				}
				r, err := tx.Exec(readCounter, int64(1))
				if err != nil {
					t.Fatal(err)
				}
				if r.Rows[0][0].(int64) != 1 {
					t.Fatalf("iteration %d: read %v, want 1", i, r.Rows[0][0])
				}
				if _, err := tx.Commit(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

func TestInvalidConfig(t *testing.T) {
	for name, cfg := range map[string]Config{
		"0 replicas":  {Replicas: 0},
		"65 replicas": {Replicas: 65},
		// A shard the certifier will not have: the replica would be
		// served nothing but skip markers.
		"ReplicaShards outside [0, Shards)": {Replicas: 2, Shards: 4, ReplicaShards: [][]int{{0, 1}, {2, 4}}},
		// An unsharded cluster has shard 0 and no other; this used to be
		// ignored, and the table certified on shard 0 all the same.
		"ShardTables outside [0, 1) on an unsharded cluster": {Replicas: 2, ShardTables: map[string]int{"counter": 1}},
	} {
		if _, err := New(cfg); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestLoadDataTwiceFails(t *testing.T) {
	c := newCluster(t, Config{Replicas: 1, Mode: core.Coarse})
	if err := c.LoadData(loadCounter); err == nil {
		t.Fatal("second LoadData succeeded")
	}
}

// TestLoadDataLoadsReplicasConcurrently holds every replica's load at a
// barrier until all of them have entered it, which only loads running
// at once can pass: a loop that loads one replica after another would
// wait there forever. The timeout only keeps such a loop from hanging
// the test; nothing here is timed.
func TestLoadDataLoadsReplicasConcurrently(t *testing.T) {
	const replicas = 3
	c, err := New(Config{Replicas: replicas, Mode: core.Coarse})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var entered sync.WaitGroup
	entered.Add(replicas)
	allIn := make(chan struct{})
	go func() { entered.Wait(); close(allIn) }()
	err = c.LoadData(func(e *storage.Engine) error {
		entered.Done()
		select {
		case <-allIn:
		case <-time.After(time.Minute):
			return errors.New("the other replicas' loads never started")
		}
		return loadCounter(e)
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < replicas; i++ {
		if got, want := c.Replica(i).Engine().Version(), c.Certifier().Version(); got != want || got == 0 {
			t.Errorf("replica %d at version %d, certifier at %d", i, got, want)
		}
	}
}

// TestLoadDataNamesFailingReplica: when replicas 1 and 2 fail their
// loads, the error is replica 1's and says so.
func TestLoadDataNamesFailingReplica(t *testing.T) {
	c, err := New(Config{Replicas: 3, Mode: core.Coarse})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	errs := map[*storage.Engine]error{
		c.Replica(1).Engine(): errors.New("disk full on one"),
		c.Replica(2).Engine(): errors.New("disk full on two"),
	}
	err = c.LoadData(func(e *storage.Engine) error {
		if err := loadCounter(e); err != nil {
			return err
		}
		return errs[e]
	})
	if err == nil || !errors.Is(err, errs[c.Replica(1).Engine()]) || !strings.Contains(err.Error(), "replica 1") {
		t.Fatalf("LoadData = %v, want replica 1's error", err)
	}
}

// TestLoadDataRefusesNonDeterministicLoad: a replica whose load commits
// one row more than the others ends at a different version, and LoadData
// refuses the load.
func TestLoadDataRefusesNonDeterministicLoad(t *testing.T) {
	c, err := New(Config{Replicas: 3, Mode: core.Coarse})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	odd := c.Replica(2).Engine()
	err = c.LoadData(func(e *storage.Engine) error {
		if err := loadCounter(e); err != nil || e != odd {
			return err
		}
		tx := e.Begin()
		if err := tx.Insert("counter", []any{int64(99), int64(0)}); err != nil {
			return err
		}
		_, err := tx.CommitLocal()
		return err
	})
	if err == nil || !strings.Contains(err.Error(), "non-deterministic load") || !strings.Contains(err.Error(), "replica 2") {
		t.Fatalf("LoadData = %v, want the version check naming replica 2", err)
	}
}

// TestStrongConsistencyUnderConcurrency is the core correctness test:
// with a latency model that makes refresh application slow, many
// concurrent sessions hammer the cluster. The strong modes must show
// zero strong-consistency violations in the recorded history; session
// mode must at least keep its own (weaker) guarantee.
func TestStrongConsistencyUnderConcurrency(t *testing.T) {
	lat := latency.Model{
		OneWay:        200 * time.Microsecond,
		ApplyWriteSet: 3 * time.Millisecond, // slow refresh: stale replicas
		LocalCommit:   100 * time.Microsecond,
		CommitIO:      300 * time.Microsecond,
		Jitter:        0.3,
		Scale:         1,
	}
	for _, mode := range []core.Mode{core.Eager, core.Coarse, core.Fine} {
		t.Run(mode.String(), func(t *testing.T) {
			c := newCluster(t, Config{
				Replicas: 4, Mode: mode, Latency: lat, Seed: 42, RecordHistory: true,
			})
			runMixedLoad(t, c, 8, 15)

			events := c.Recorder().Events()
			if len(events) < 50 {
				t.Fatalf("only %d events recorded", len(events))
			}
			if v := history.CheckStrong(events); len(v) > 0 {
				t.Fatalf("%s: %d strong-consistency violations; first: %s", mode, len(v), v[0])
			}
		})
	}

	t.Run("SC-keeps-session-guarantee", func(t *testing.T) {
		c := newCluster(t, Config{
			Replicas: 4, Mode: core.Session, Latency: lat, Seed: 43, RecordHistory: true,
		})
		runMixedLoad(t, c, 8, 15)
		events := c.Recorder().Events()
		if v := history.CheckSession(events); len(v) > 0 {
			t.Fatalf("session violations under SC: %s", v[0])
		}
		if v := history.CheckMonotonicSessions(events); len(v) > 0 {
			t.Fatalf("session snapshots regressed: %s", v[0])
		}
	})
}

// TestSessionModeViolatesStrongConsistency demonstrates the gap the
// paper closes: under SC with slow refresh, cross-session reads observe
// stale data (history H1 of §II).
func TestSessionModeViolatesStrongConsistency(t *testing.T) {
	lat := latency.Model{
		ApplyWriteSet: 20 * time.Millisecond, // very slow propagation
		Scale:         1,
	}
	c := newCluster(t, Config{
		Replicas: 2, Mode: core.Session, Latency: lat, Seed: 7, RecordHistory: true,
	})

	writer := c.SessionWithID("writer")
	reader := c.SessionWithID("reader")
	violated := false
	for round := 0; round < 40 && !violated; round++ {
		tx, err := writer.Begin("writeCounter")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Exec(writeCounter, int64(round+1), int64(3)); err != nil {
			tx.Abort()
			continue
		}
		if _, err := tx.Commit(); err != nil {
			continue
		}
		// Immediately read from the other session: under SC the begin
		// is not delayed, so a stale replica serves old data.
		rd, err := reader.Begin("readCounter")
		if err != nil {
			t.Fatal(err)
		}
		res, err := rd.Exec(readCounter, int64(3))
		if err != nil {
			rd.Abort()
			continue
		}
		if _, err := rd.Commit(); err != nil {
			continue
		}
		if res.Rows[0][0].(int64) != int64(round+1) {
			violated = true
		}
	}
	if !violated {
		t.Skip("stale read not observed (scheduling); the history checker covers this probabilistically elsewhere")
	}
	if v := history.CheckStrong(c.Recorder().Events()); len(v) == 0 {
		t.Fatal("stale read observed but checker found no violation")
	}
}

// runMixedLoad drives sessions×rounds transactions (70% reads).
func runMixedLoad(t *testing.T, c *Cluster, sessions, rounds int) {
	t.Helper()
	var wg sync.WaitGroup
	for sid := 0; sid < sessions; sid++ {
		wg.Add(1)
		go func(sid int) {
			defer wg.Done()
			s := c.SessionWithID(fmt.Sprintf("load-%d", sid))
			defer s.Close()
			for i := 0; i < rounds; i++ {
				if (sid+i)%10 < 7 {
					tx, err := s.Begin("readCounter")
					if err != nil {
						continue
					}
					if _, err := tx.Exec(readCounter, int64((sid+i)%16)); err != nil {
						tx.Abort()
						continue
					}
					_, _ = tx.Commit()
				} else {
					tx, err := s.Begin("bumpCounter")
					if err != nil {
						continue
					}
					if _, err := tx.Exec(bumpCounter, int64((sid*3+i)%16)); err != nil {
						tx.Abort()
						continue
					}
					_, _ = tx.Commit()
				}
			}
		}(sid)
	}
	wg.Wait()
}

// TestLostUpdatePrevention: concurrent increments to one counter from
// many sessions; certification must serialize them so the final value
// equals the number of successful commits.
func TestLostUpdatePrevention(t *testing.T) {
	c := newCluster(t, Config{Replicas: 3, Mode: core.Coarse, Seed: 3})
	var mu sync.Mutex
	committed := 0
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := c.SessionWithID(fmt.Sprintf("w%d", w))
			for i := 0; i < 20; i++ {
				tx, err := s.Begin("bumpCounter")
				if err != nil {
					continue
				}
				if _, err := tx.Exec(bumpCounter, int64(0)); err != nil {
					tx.Abort()
					continue
				}
				if _, err := tx.Commit(); err == nil {
					mu.Lock()
					committed++
					mu.Unlock()
				}
			}
		}(w)
	}
	wg.Wait()
	if committed == 0 {
		t.Fatal("no increments committed")
	}
	// Read back through a fresh session under coarse consistency.
	s := c.NewSession()
	tx, err := s.Begin("readCounter")
	if err != nil {
		t.Fatal(err)
	}
	res, err := tx.Exec(readCounter, int64(0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].(int64); got != int64(committed) {
		t.Fatalf("counter = %d, committed = %d (lost or phantom updates)", got, committed)
	}
}

func TestAbortedTxnLeavesNoTrace(t *testing.T) {
	c := newCluster(t, Config{Replicas: 2, Mode: core.Coarse})
	s := c.NewSession()
	tx, err := s.Begin("bumpCounter")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(bumpCounter, int64(5)); err != nil {
		t.Fatal(err)
	}
	tx.Abort()
	if _, err := tx.Commit(); !errors.Is(err, replica.ErrTxnDone) {
		t.Fatalf("commit after abort: %v", err)
	}

	rd, _ := s.Begin("readCounter")
	res, err := rd.Exec(readCounter, int64(5))
	if err != nil {
		t.Fatal(err)
	}
	_, _ = rd.Commit()
	if res.Rows[0][0].(int64) != 0 {
		t.Fatalf("aborted write visible: %v", res.Rows[0][0])
	}
	snap := c.Collector().Snapshot()
	if snap.Aborted < 1 {
		t.Fatalf("abort not recorded: %+v", snap)
	}
}

func TestClusterCrashFailover(t *testing.T) {
	c := newCluster(t, Config{Replicas: 3, Mode: core.Coarse, Seed: 5})
	s := c.NewSession()

	// Crash one replica; the balancer must route around it.
	c.Replica(1).Crash()
	for i := 0; i < 10; i++ {
		tx, err := s.Begin("bumpCounter")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Exec(bumpCounter, int64(2)); err != nil {
			tx.Abort()
			continue
		}
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	// Recover and verify the replica catches up and serves consistent
	// reads under coarse mode.
	if err := c.Replica(1).Recover(); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(5 * time.Second)
	for c.Replica(1).Version() < c.Certifier().Version() {
		select {
		case <-deadline:
			t.Fatalf("replica 1 stuck at %d, certifier at %d", c.Replica(1).Version(), c.Certifier().Version())
		case <-time.After(time.Millisecond):
		}
	}
	tx := mustBegin(t, s, "readCounter")
	res, err := tx.Exec(readCounter, int64(2))
	if err != nil {
		t.Fatal(err)
	}
	_, _ = tx.Commit()
	if res.Rows[0][0].(int64) != 10 {
		t.Fatalf("post-recovery read = %v, want 10", res.Rows[0][0])
	}
}

func mustBegin(t *testing.T, s *Session, name string) *Tx {
	t.Helper()
	tx, err := s.Begin(name)
	if err != nil {
		t.Fatal(err)
	}
	return tx
}

// TestVacuumAllKeepsClusterServing trims the certifier mid-run and at
// the end, and the session goes on committing and reading; a read
// transaction open across the trim keeps its replica's horizon at its
// snapshot, so the trim stays at or below it and the reads still see
// that snapshot.
func TestVacuumAllKeepsClusterServing(t *testing.T) {
	c := newCluster(t, Config{Replicas: 2, Mode: core.Fine, Seed: 9})
	s := c.NewSession()
	reader := c.NewSession()
	defer reader.Close()
	open := mustBegin(t, reader, "readCounter")
	first, err := open.Exec(readCounter, int64(1))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		tx := mustBegin(t, s, "bumpCounter")
		if _, err := tx.Exec(bumpCounter, int64(i%4)); err != nil {
			tx.Abort()
			continue
		}
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		if i == 10 {
			c.VacuumAll()
		}
	}
	c.VacuumAll()
	again, err := open.Exec(readCounter, int64(1))
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(again.Rows) != fmt.Sprint(first.Rows) {
		t.Fatalf("open transaction read %v after the trims, %v before", again.Rows, first.Rows)
	}
	if _, err := open.Commit(); err != nil {
		t.Fatal(err)
	}
	tx := mustBegin(t, s, "readCounter")
	if _, err := tx.Exec(readCounter, int64(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestFineModeSkipsWaitOnReadOnlyTables: with fine-grained consistency
// a transaction over a never-written table must not wait even when
// other tables are badly lagged.
func TestFineModeSkipsWaitOnReadOnlyTables(t *testing.T) {
	lat := latency.Model{ApplyWriteSet: 30 * time.Millisecond, Scale: 1}
	c := newCluster(t, Config{Replicas: 2, Mode: core.Fine, Latency: lat, Seed: 11})
	s := c.NewSession()

	// Lag the cluster: a burst of counter updates.
	for i := 0; i < 5; i++ {
		tx := mustBegin(t, s, "bumpCounter")
		if _, err := tx.Exec(bumpCounter, int64(i)); err != nil {
			tx.Abort()
			continue
		}
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	// A read of the untouched ref table from a NEW session (no session
	// baggage) must start with zero version wait.
	fresh := c.SessionWithID("fresh-reader")
	tx := mustBegin(t, fresh, "readRef")
	if _, err := tx.Exec(readRef, int64(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// Under coarse the same read would wait for the counter updates.
	route, err := c.Balancer().Dispatch("probe", "readRef")
	if err != nil {
		t.Fatal(err)
	}
	if route.MinVersion != 0 {
		t.Fatalf("fine-grained min version for read-only table = %d, want 0", route.MinVersion)
	}
}

func TestCollectorSnapshot(t *testing.T) {
	c := newCluster(t, Config{Replicas: 2, Mode: core.Coarse, Seed: 13})
	c.Collector().Reset()
	s := c.NewSession()
	for i := 0; i < 10; i++ {
		tx := mustBegin(t, s, "bumpCounter")
		if _, err := tx.Exec(bumpCounter, int64(i)); err != nil {
			tx.Abort()
			continue
		}
		_, _ = tx.Commit()
	}
	snap := c.Collector().Snapshot()
	if snap.Committed != 10 || snap.Updates != 10 {
		t.Fatalf("snapshot = %+v", snap)
	}
	if snap.TPS <= 0 || snap.MeanResponse <= 0 {
		t.Fatalf("degenerate snapshot: %+v", snap)
	}
}
