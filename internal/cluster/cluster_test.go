package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sconrep/internal/core"
	"sconrep/internal/history"
	"sconrep/internal/latency"
	"sconrep/internal/pstore"
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

// newLoadCluster is a three-replica CSC cluster with nothing loaded.
func newLoadCluster(t *testing.T) *Cluster {
	t.Helper()
	c, err := New(Config{Replicas: 3, Mode: core.Coarse})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// loaderCalls wraps load so it records each engine it runs on; once
// fails t unless that was replica 0's engine and no other.
type loaderCalls struct {
	mu    sync.Mutex
	calls []*storage.Engine
}

func (l *loaderCalls) wrap(load func(*storage.Engine) error) func(*storage.Engine) error {
	return func(e *storage.Engine) error {
		l.mu.Lock()
		l.calls = append(l.calls, e)
		l.mu.Unlock()
		return load(e)
	}
}

func (l *loaderCalls) once(t *testing.T, c *Cluster) {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.calls) != 1 || l.calls[0] != c.Replica(0).Engine() {
		t.Fatalf("loader ran on %d engines (%v), want once on replica 0's", len(l.calls), l.calls)
	}
}

// TestLoadDataLoadsReplicasConcurrently: the loader runs once, on
// replica 0, and replicas 1 and 2 are built from its state at once. The
// builds wait at a barrier until both have entered it, which only builds
// running at once can pass: a loop that builds one replica after another
// would wait there forever. The timeout only keeps such a loop from
// hanging the test; nothing here is timed. Every replica ends at the
// certifier's version.
func TestLoadDataLoadsReplicasConcurrently(t *testing.T) {
	c := newLoadCluster(t)
	built := c.NumReplicas() - 1
	var entered sync.WaitGroup
	entered.Add(built)
	allIn := make(chan struct{})
	go func() { entered.Wait(); close(allIn) }()
	build := buildReplica
	t.Cleanup(func() { buildReplica = build })
	buildReplica = func(e *storage.Engine, at uint64, imgs []storage.TableImage) error {
		entered.Done()
		select {
		case <-allIn:
		case <-time.After(time.Minute):
			return errors.New("the other replicas' builds never started")
		}
		return build(e, at, imgs)
	}
	var l loaderCalls
	if err := c.LoadData(l.wrap(loadCounter)); err != nil {
		t.Fatal(err)
	}
	l.once(t, c)
	for i := 0; i < c.NumReplicas(); i++ {
		if got, want := c.Replica(i).Engine().Version(), c.Certifier().Version(); got != want || got == 0 {
			t.Errorf("replica %d at version %d, certifier at %d", i, got, want)
		}
	}
}

// TestLoadDataNamesFailingReplica: a loader error names replica 0, the
// only replica the loader runs on. When replicas 1 and 2 cannot be built
// from replica 0's state (each already has a table), the error is
// replica 1's and says so; the loader still ran once.
func TestLoadDataNamesFailingReplica(t *testing.T) {
	t.Run("loader error", func(t *testing.T) {
		c := newLoadCluster(t)
		failed := errors.New("disk full")
		var l loaderCalls
		err := c.LoadData(l.wrap(func(e *storage.Engine) error {
			if err := loadCounter(e); err != nil {
				return err
			}
			return failed
		}))
		if !errors.Is(err, failed) || !strings.Contains(err.Error(), "replica 0") {
			t.Fatalf("LoadData = %v, want the loader's error naming replica 0", err)
		}
		l.once(t, c)
	})
	t.Run("build error", func(t *testing.T) {
		c := newLoadCluster(t)
		for _, i := range []int{1, 2} {
			if err := c.Replica(i).Engine().CreateTable(&storage.Schema{
				Table:   "stray",
				Columns: []storage.Column{{Name: "id", Type: storage.TInt}},
				Key:     []string{"id"},
			}); err != nil {
				t.Fatal(err)
			}
		}
		var l loaderCalls
		err := c.LoadData(l.wrap(loadCounter))
		if err == nil || !strings.Contains(err.Error(), "replica 1") {
			t.Fatalf("LoadData = %v, want replica 1's build error", err)
		}
		l.once(t, c)
	})
}

// TestLoadDataRefusesNonDeterministicLoad: LoadData runs the loader
// once, so it cannot compare two loads; a durable replica restarted on a
// directory with no checkpoint runs it again. A rerun that commits one
// row more ends at another version than the certifier backfills from,
// and the restart fails, leaving the replica detached.
func TestLoadDataRefusesNonDeterministicLoad(t *testing.T) {
	c, err := New(Config{Replicas: 2, Mode: core.Coarse, DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	var runs atomic.Int32
	if err := c.LoadData(func(e *storage.Engine) error {
		if err := loadCounter(e); err != nil || runs.Add(1) == 1 {
			return err
		}
		tx := e.Begin()
		if err := tx.Insert("counter", []any{int64(99), int64(0)}); err != nil {
			return err
		}
		_, err := tx.CommitLocal()
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if ck := c.Store(1).Stats().CheckpointCount; ck != 0 {
		t.Fatalf("replica 1 holds %d checkpoints; the restart would not rerun the loader", ck)
	}
	c.KillReplica(1)
	if err := c.RestartReplica(1); err == nil || !strings.Contains(err.Error(), "non-deterministic load") {
		t.Fatalf("RestartReplica = %v, want the version check", err)
	}
	if runs.Load() != 2 {
		t.Fatalf("the loader ran %d times, want once at LoadData and once at the restart", runs.Load())
	}
	if !c.Replica(1).Crashed() {
		t.Fatal("replica serving after a refused restart")
	}
}

// loadItems is loadCounter plus an item table with two secondary
// indexes, NULLs in one of them, rows written over several commits and
// a delete last, so the table was written after every row it keeps.
func loadItems(e *storage.Engine) error {
	if err := loadCounter(e); err != nil {
		return err
	}
	if err := e.CreateTable(&storage.Schema{
		Table:   "item",
		Columns: []storage.Column{{Name: "id", Type: storage.TInt}, {Name: "grp", Type: storage.TInt}, {Name: "name", Type: storage.TString}},
		Key:     []string{"id"},
		Indexes: []storage.IndexDef{{Name: "item_grp", Column: "grp"}, {Name: "item_name", Column: "name"}},
	}); err != nil {
		return err
	}
	for round := int64(0); round < 3; round++ {
		tx := e.Begin()
		for i := int64(0); i < 20; i++ {
			var grp any = i % 3
			if i%5 == 0 {
				grp = nil
			}
			if err := tx.Insert("item", []any{round*20 + i, grp, fmt.Sprintf("n%02d", (i*7)%20)}); err != nil {
				return err
			}
		}
		if _, err := tx.CommitLocal(); err != nil {
			return err
		}
	}
	tx := e.Begin()
	if err := tx.Delete("item", storage.EncodeKey(int64(59))); err != nil {
		return err
	}
	_, err := tx.CommitLocal()
	return err
}

// TestLoadDataReplicasAreIdentical: the replicas LoadData builds from
// replica 0 hold its state exactly — the same checkpoint image byte for
// byte, the same per-table versions (the item table's a delete's, above
// every row it keeps), the same index reads, the same horizon — and
// stay identical as updates install on each of them.
func TestLoadDataReplicasAreIdentical(t *testing.T) {
	c, err := New(Config{Replicas: 3, Mode: core.Coarse})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if err := c.LoadData(loadItems); err != nil {
		t.Fatal(err)
	}
	c.RegisterTxn("bumpCounter", bumpCounter)
	v0 := c.Certifier().Version()
	tables := []string{"counter", "item", "ref", "none"}
	type state struct {
		image    []byte
		versions []uint64
		horizon  uint64
		reads    [][]storage.KV
	}
	stateOf := func(t *testing.T, i int, at uint64) state {
		t.Helper()
		e := c.Replica(i).Engine()
		img, err := pstore.SnapshotAt(e, at)
		if err != nil {
			t.Fatal(err)
		}
		st := state{image: img, versions: e.TableVersionsAt(tables, at), horizon: e.Horizon()}
		tx, err := e.BeginAt(at)
		if err != nil {
			t.Fatal(err)
		}
		defer tx.Abort()
		for _, ix := range []string{"item_grp", "item_name"} {
			var walk []storage.KV
			cur := tx.IndexCursor("item", ix)
			for cur.Next() {
				walk = append(walk, cur.KV())
			}
			if cur.Err() != nil {
				t.Fatal(cur.Err())
			}
			st.reads = append(st.reads, walk)
		}
		for _, q := range [][]any{{"item_grp", int64(1)}, {"item_name", "n07"}} {
			kvs, err := tx.ScanIndexEq("item", q[0].(string), q[1])
			if err != nil {
				t.Fatal(err)
			}
			st.reads = append(st.reads, kvs)
		}
		return st
	}
	same := func(t *testing.T, at uint64) {
		t.Helper()
		want := stateOf(t, 0, at)
		if len(want.reads[0]) != 59 || len(want.reads[2]) == 0 || len(want.reads[3]) == 0 {
			t.Fatalf("replica 0 reads %d, %d, %d rows: the load is not what the test expects", len(want.reads[0]), len(want.reads[2]), len(want.reads[3]))
		}
		for i := 1; i < c.NumReplicas(); i++ {
			got := stateOf(t, i, at)
			if !bytes.Equal(got.image, want.image) {
				t.Errorf("replica %d: image at %d differs from replica 0's", i, at)
			}
			if !reflect.DeepEqual(got.versions, want.versions) || got.horizon != want.horizon {
				t.Errorf("replica %d: table versions %v, horizon %d; replica 0 %v, %d", i, got.versions, got.horizon, want.versions, want.horizon)
			}
			if !reflect.DeepEqual(got.reads, want.reads) {
				t.Errorf("replica %d: index reads differ from replica 0's", i)
			}
		}
	}

	same(t, v0)
	if vt := c.Replica(1).Engine().TableVersionsAt([]string{"item"}, v0); vt[0] != v0 {
		t.Errorf("item table version %d, want the delete's %d", vt[0], v0)
	}
	s := c.NewSession()
	defer s.Close()
	bumpN(t, s, 40)
	waitAllAt(t, c, v0+40)
	same(t, v0+40)
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
