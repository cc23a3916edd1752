package replica

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"sconrep/internal/certifier"
	"sconrep/internal/latency"
	"sconrep/internal/metrics"
	"sconrep/internal/obs"
	"sconrep/internal/sql"
	"sconrep/internal/storage"
)

// rig is a certifier plus n replicas sharing an identically loaded
// key/value schema.
type rig struct {
	cert     *certifier.Certifier
	replicas []*Replica
}

func newRig(t *testing.T, n int, earlyCert bool, opts ...certifier.Option) *rig {
	t.Helper()
	cert := certifier.New(opts...)
	r := &rig{cert: cert}
	for i := 0; i < n; i++ {
		eng := storage.NewEngine()
		loadKV(t, eng)
		r.replicas = append(r.replicas, New(Config{ID: i, EarlyCert: earlyCert}, eng, Local(cert)))
	}
	if err := cert.StartAt(r.replicas[0].Version()); err != nil {
		t.Fatal(err)
	}
	return r
}

func loadKV(t *testing.T, eng *storage.Engine) {
	t.Helper()
	if err := kvBoot(eng); err != nil {
		t.Fatal(err)
	}
}

// kvBoot is loadKV as a deterministic bootstrap function — the form a
// durable backend replays on recovery from an empty data directory.
func kvBoot(eng *storage.Engine) error {
	err := eng.CreateTable(&storage.Schema{
		Table:   "kv",
		Columns: []storage.Column{{Name: "k", Type: storage.TInt}, {Name: "v", Type: storage.TString}},
		Key:     []string{"k"},
	})
	if err != nil {
		return err
	}
	tx := eng.Begin()
	for k := int64(0); k < 10; k++ {
		if err := tx.Insert("kv", []any{k, "init"}); err != nil {
			return err
		}
	}
	_, err = tx.CommitLocal()
	return err
}

func (r *rig) close() {
	for _, rep := range r.replicas {
		rep.Crash()
	}
}

var (
	getStmt, _ = sql.Prepare(`SELECT v FROM kv WHERE k = ?`)
	setStmt, _ = sql.Prepare(`UPDATE kv SET v = ? WHERE k = ?`)
)

// commitUpdate runs one update transaction on replica r.
func commitUpdate(t *testing.T, r *Replica, k int64, v string) CommitResult {
	t.Helper()
	tx, err := r.Begin(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(setStmt, v, k); err != nil {
		t.Fatal(err)
	}
	res, err := tx.Commit(false)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// readKV reads key k at the replica's current state.
func readKV(t *testing.T, r *Replica, k int64) string {
	t.Helper()
	tx, err := r.Begin(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Abort()
	res, err := tx.Exec(getStmt, k)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("key %d: %d rows", k, len(res.Rows))
	}
	return res.Rows[0][0].(string)
}

// waitVersion fails the test if the replica does not reach v quickly.
func waitVersion(t *testing.T, r *Replica, v uint64) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- r.WaitVersion(v) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("replica %d stuck below version %d (at %d)", r.ID(), v, r.Version())
	}
}

func TestUpdatePropagatesToAllReplicas(t *testing.T) {
	rg := newRig(t, 3, true)
	defer rg.close()
	res := commitUpdate(t, rg.replicas[0], 1, "hello")
	if res.ReadOnly || len(res.WrittenTables) != 1 || res.WrittenTables[0] != "kv" {
		t.Fatalf("commit result = %+v", res)
	}
	for _, r := range rg.replicas {
		waitVersion(t, r, res.Version)
		if got := readKV(t, r, 1); got != "hello" {
			t.Fatalf("replica %d: kv[1] = %q", r.ID(), got)
		}
	}
	if rg.replicas[1].AppliedRefreshes() != 1 {
		t.Fatalf("replica 1 applied %d refreshes, want 1", rg.replicas[1].AppliedRefreshes())
	}
}

func TestReadOnlyCommitsLocally(t *testing.T) {
	rg := newRig(t, 2, true)
	defer rg.close()
	certV := rg.cert.Version()
	tx, err := rg.replicas[0].Begin(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(getStmt, int64(1)); err != nil {
		t.Fatal(err)
	}
	res, err := tx.Commit(false)
	if err != nil {
		t.Fatal(err)
	}
	if !res.ReadOnly {
		t.Fatal("read-only txn not detected")
	}
	if rg.cert.Version() != certV {
		t.Fatal("read-only commit reached the certifier")
	}
}

func TestCertificationConflictAborts(t *testing.T) {
	rg := newRig(t, 2, false)
	defer rg.close()
	t0, err := rg.replicas[0].Begin(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	t1, err := rg.replicas[1].Begin(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := t0.Exec(setStmt, "a", int64(5)); err != nil {
		t.Fatal(err)
	}
	if _, err := t1.Exec(setStmt, "b", int64(5)); err != nil {
		t.Fatal(err)
	}
	if _, err := t0.Commit(false); err != nil {
		t.Fatal(err)
	}
	if _, err := t1.Commit(false); !errors.Is(err, ErrCertifyConflict) {
		t.Fatalf("second committer err = %v, want ErrCertifyConflict", err)
	}
	// The system state must reflect only the winner, everywhere.
	for _, r := range rg.replicas {
		waitVersion(t, r, rg.cert.Version())
		if got := readKV(t, r, 5); got != "a" {
			t.Fatalf("replica %d: kv[5] = %q, want a", r.ID(), got)
		}
	}
}

func TestDisjointWritesBothCommit(t *testing.T) {
	rg := newRig(t, 2, false)
	defer rg.close()
	t0, _ := rg.replicas[0].Begin(0, nil)
	t1, _ := rg.replicas[1].Begin(0, nil)
	if _, err := t0.Exec(setStmt, "a", int64(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := t1.Exec(setStmt, "b", int64(2)); err != nil {
		t.Fatal(err)
	}
	r0, err := t0.Commit(false)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := t1.Commit(false)
	if err != nil {
		t.Fatal(err)
	}
	if r0.Version == r1.Version {
		t.Fatal("distinct commits share a version")
	}
	for _, r := range rg.replicas {
		waitVersion(t, r, rg.cert.Version())
		if readKV(t, r, 1) != "a" || readKV(t, r, 2) != "b" {
			t.Fatalf("replica %d diverged", r.ID())
		}
	}
}

func TestBeginWaitsForMinVersion(t *testing.T) {
	rg := newRig(t, 2, true)
	defer rg.close()
	res := commitUpdate(t, rg.replicas[0], 3, "new")

	// Replica 1 must reach res.Version before the txn starts; the read
	// must therefore see the update.
	tx, err := rg.replicas[1].Begin(res.Version, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Abort()
	if tx.Snapshot() < res.Version {
		t.Fatalf("snapshot %d below required %d", tx.Snapshot(), res.Version)
	}
	r, err := tx.Exec(getStmt, int64(3))
	if err != nil {
		t.Fatal(err)
	}
	if r.Rows[0][0].(string) != "new" {
		t.Fatalf("read %q after version wait", r.Rows[0][0])
	}
}

func TestEarlyCertificationStatementSide(t *testing.T) {
	rg := newRig(t, 2, true)
	defer rg.close()

	// Open a txn on replica 1, then let a conflicting refresh arrive
	// before the txn's write statement.
	tx, err := rg.replicas[1].Begin(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	commitUpdate(t, rg.replicas[0], 7, "winner")
	waitVersion(t, rg.replicas[1], rg.cert.Version())

	// The write statement conflicts with the (already applied) refresh;
	// applied refreshes no longer trigger early certification, but the
	// certifier will abort at commit. Either abort path is acceptable;
	// what is not acceptable is a successful commit.
	if _, err := tx.Exec(setStmt, "loser", int64(7)); err != nil {
		if !errors.Is(err, ErrEarlyAbort) {
			t.Fatalf("exec err = %v", err)
		}
		return
	}
	if _, err := tx.Commit(false); err == nil {
		t.Fatal("conflicting transaction committed")
	}
}

func TestEarlyCertificationRefreshSideKillsActive(t *testing.T) {
	rg := newRig(t, 2, true)
	defer rg.close()

	// Txn on replica 1 writes key 8 (partial writeset registered).
	tx, err := rg.replicas[1].Begin(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(setStmt, "local", int64(8)); err != nil {
		t.Fatal(err)
	}
	// A conflicting update commits elsewhere; its refresh should kill
	// the active transaction.
	commitUpdate(t, rg.replicas[0], 8, "remote")
	waitVersion(t, rg.replicas[1], rg.cert.Version())

	// The kill is detected on the next operation or commit.
	_, execErr := tx.Exec(getStmt, int64(8))
	if execErr == nil {
		if _, err := tx.Commit(false); err == nil {
			t.Fatal("killed transaction committed")
		}
		return
	}
	if !errors.Is(execErr, ErrEarlyAbort) {
		t.Fatalf("err = %v, want ErrEarlyAbort", execErr)
	}
	// The statement that found out ended the transaction: its caller is
	// told it is over and owes no Abort.
	if n := rg.replicas[1].Active(); n != 0 {
		t.Fatalf("killed transaction still counted active (%d)", n)
	}
}

func TestEarlyCertDisabledStillAbortsAtCertifier(t *testing.T) {
	rg := newRig(t, 2, false)
	defer rg.close()
	tx, _ := rg.replicas[1].Begin(0, nil)
	if _, err := tx.Exec(setStmt, "local", int64(8)); err != nil {
		t.Fatal(err)
	}
	commitUpdate(t, rg.replicas[0], 8, "remote")
	waitVersion(t, rg.replicas[1], rg.cert.Version())
	if _, err := tx.Exec(getStmt, int64(8)); err != nil {
		t.Fatalf("early cert disabled but exec aborted: %v", err)
	}
	if _, err := tx.Commit(false); !errors.Is(err, ErrCertifyConflict) {
		t.Fatalf("err = %v, want ErrCertifyConflict", err)
	}
}

func TestCommitOrderMatchesCertifier(t *testing.T) {
	// Many concurrent writers on distinct keys across two replicas:
	// every replica must converge to identical content.
	rg := newRig(t, 3, true)
	defer rg.close()
	var wg sync.WaitGroup
	const writers = 4
	const perWriter = 25
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rg.replicas[w%len(rg.replicas)]
			for i := 0; i < perWriter; i++ {
				k := int64(w*perWriter+i) % 10
				tx, err := r.Begin(0, nil)
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := tx.Exec(setStmt, fmt.Sprintf("w%d-%d", w, i), k); err != nil {
					tx.Abort()
					continue // early certification may abort; fine
				}
				if _, err := tx.Commit(false); err != nil {
					continue // certification conflicts are expected
				}
			}
		}(w)
	}
	wg.Wait()
	final := rg.cert.Version()
	for _, r := range rg.replicas {
		waitVersion(t, r, final)
	}
	// All replicas identical.
	base := rg.replicas[0].Engine()
	btx := base.Begin()
	want, _ := btx.ScanAll("kv")
	for _, r := range rg.replicas[1:] {
		rtx := r.Engine().Begin()
		got, _ := rtx.ScanAll("kv")
		if len(got) != len(want) {
			t.Fatalf("replica %d row count %d != %d", r.ID(), len(got), len(want))
		}
		for i := range want {
			if got[i].Key != want[i].Key || got[i].Row[1] != want[i].Row[1] {
				t.Fatalf("replica %d diverged at %q: %v vs %v", r.ID(), want[i].Key, got[i].Row, want[i].Row)
			}
		}
	}
}

func TestEagerCommitWaitsForAllReplicas(t *testing.T) {
	rg := newRig(t, 3, true, certifier.WithEager())
	defer rg.close()

	tx, _ := rg.replicas[0].Begin(0, nil)
	if _, err := tx.Exec(setStmt, "eager", int64(0)); err != nil {
		t.Fatal(err)
	}
	res, err := tx.Commit(true)
	if err != nil {
		t.Fatal(err)
	}
	// The defining property: at ack time, EVERY replica has the commit.
	for _, r := range rg.replicas {
		if r.Version() < res.Version {
			t.Fatalf("eager ack before replica %d applied (at %d, want %d)", r.ID(), r.Version(), res.Version)
		}
	}
}

// TestCrashInsideGlobalWait: an eager commit waiting for the certifier's
// notice ends with ErrCrashed when its replica crashes, without waiting
// for the replicas that have not applied. Subscriber 1 is a bare
// subscription that never acknowledges.
func TestCrashInsideGlobalWait(t *testing.T) {
	rg := newRig(t, 1, true, certifier.WithEager())
	defer rg.close()
	if _, err := rg.cert.Subscribe(1, nil, rg.cert.Version()); err != nil {
		t.Fatal(err)
	}
	origin := rg.replicas[0]
	before := origin.Version()

	tx, err := origin.Begin(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(setStmt, "eager", int64(0)); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := tx.Commit(true)
		done <- err
	}()
	waitVersion(t, origin, before+1) // committed locally; the global wait is next
	select {
	case err := <-done:
		t.Fatalf("eager commit returned (%v) before subscriber 1 applied", err)
	case <-time.After(20 * time.Millisecond):
	}
	origin.Crash()
	select {
	case err := <-done:
		if !errors.Is(err, ErrCrashed) {
			t.Fatalf("eager commit on a crashed origin: %v, want ErrCrashed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a crash did not end the global wait")
	}
}

// TestEagerCommitOnLazyCertifier: nobody would ever report the global
// commit, so the commit is refused before anything is certified.
func TestEagerCommitOnLazyCertifier(t *testing.T) {
	rg := newRig(t, 2, true)
	defer rg.close()
	before := rg.cert.Version()
	tx, err := rg.replicas[0].Begin(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(setStmt, "eager", int64(0)); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Commit(true); !errors.Is(err, ErrNotEager) {
		t.Fatalf("eager commit on a lazy certifier: %v, want ErrNotEager", err)
	}
	if v := rg.cert.Version(); v != before {
		t.Fatalf("the refused commit was certified (version %d → %d)", before, v)
	}
	if n := rg.replicas[0].Active(); n != 0 {
		t.Fatalf("%d transactions still active after the refused commit", n)
	}
}

func TestCrashRecoveryCatchUp(t *testing.T) {
	rg := newRig(t, 3, true)
	defer rg.close()

	commitUpdate(t, rg.replicas[0], 1, "before")
	for _, r := range rg.replicas {
		waitVersion(t, r, rg.cert.Version())
	}
	rg.replicas[2].Crash()
	if !rg.replicas[2].Crashed() {
		t.Fatal("Crashed() = false after Crash")
	}
	// Progress while replica 2 is down.
	for i := 0; i < 5; i++ {
		commitUpdate(t, rg.replicas[i%2], int64(i), fmt.Sprintf("during-%d", i))
	}
	// Transactions on the crashed replica fail.
	if _, err := rg.replicas[2].Begin(0, nil); !errors.Is(err, ErrCrashed) {
		t.Fatalf("Begin on crashed replica: %v", err)
	}

	if err := rg.replicas[2].Recover(); err != nil {
		t.Fatal(err)
	}
	waitVersion(t, rg.replicas[2], rg.cert.Version())
	for k := int64(0); k < 5; k++ {
		want := readKV(t, rg.replicas[0], k)
		if got := readKV(t, rg.replicas[2], k); got != want {
			t.Fatalf("after recovery kv[%d] = %q, want %q", k, got, want)
		}
	}
	// And it continues to receive new refreshes.
	res := commitUpdate(t, rg.replicas[0], 9, "after")
	waitVersion(t, rg.replicas[2], res.Version)
	if got := readKV(t, rg.replicas[2], 9); got != "after" {
		t.Fatalf("post-recovery refresh lost: %q", got)
	}
}

func TestCrashKillsActiveTxns(t *testing.T) {
	rg := newRig(t, 2, true)
	defer rg.close()
	tx, err := rg.replicas[0].Begin(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	rg.replicas[0].Crash()
	if _, err := tx.Exec(getStmt, int64(1)); err == nil {
		t.Fatal("exec succeeded on crashed replica")
	}
}

// Crash marks active transactions killed so their next operation cleans
// them up; that is an abort, but not one early certification decided —
// sconrep_replica_early_aborts_total counts only those.
func TestCrashKillIsNotAnEarlyAbort(t *testing.T) {
	rg := newRig(t, 2, true)
	defer rg.close()
	r := rg.replicas[1]
	r.EnableObs(obs.NewRegistry(), nil)
	o := r.obs.Load()

	// The control: a refresh that conflicts with an active transaction's
	// writes kills it, and that is an early abort.
	tx, err := r.Begin(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(setStmt, "local", int64(8)); err != nil {
		t.Fatal(err)
	}
	commitUpdate(t, rg.replicas[0], 8, "remote")
	waitVersion(t, r, rg.cert.Version())
	if _, err := tx.Exec(getStmt, int64(8)); !errors.Is(err, ErrEarlyAbort) {
		t.Fatalf("err = %v, want ErrEarlyAbort", err)
	}
	if a, e := o.aborts.Value(), o.earlyAborts.Value(); a != 1 || e != 1 {
		t.Fatalf("after an early-certification kill: aborts %d early %d, want 1 and 1", a, e)
	}

	tx, err = r.Begin(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	r.Crash()
	if _, err := tx.Exec(getStmt, int64(1)); err == nil {
		t.Fatal("exec succeeded on crashed replica")
	}
	if a, e := o.aborts.Value(), o.earlyAborts.Value(); a != 2 || e != 1 {
		t.Fatalf("after a crash kill: aborts %d early %d, want 2 and 1", a, e)
	}
}

func TestRecoverOnLiveReplicaFails(t *testing.T) {
	rg := newRig(t, 1, true)
	defer rg.close()
	if err := rg.replicas[0].Recover(); err == nil {
		t.Fatal("Recover on live replica succeeded")
	}
}

func TestTimerStages(t *testing.T) {
	rg := newRig(t, 2, true, certifier.WithEager())
	defer rg.close()
	// run commits one transaction — an update, or a read — and returns
	// its finished stage timeline.
	run := func(update, eager bool) metrics.Timeline {
		t.Helper()
		tx, err := rg.replicas[0].Begin(0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if update {
			_, err = tx.Exec(setStmt, "x", int64(4))
		} else {
			_, err = tx.Exec(getStmt, int64(4))
		}
		if err != nil {
			t.Fatal(err)
		}
		if st := tx.Stages(); st.Stage(metrics.StageVersion) <= 0 || st.Stage(metrics.StageQueries) != 0 {
			t.Errorf("in flight: version %v, want > 0 (closed by Begin); queries %v, want 0 (still running)",
				st.Stage(metrics.StageVersion), st.Stage(metrics.StageQueries))
		}
		if _, err := tx.Commit(eager); err != nil {
			t.Fatal(err)
		}
		st := tx.Stages()
		var sum time.Duration
		for _, stage := range metrics.Stages {
			sum += st.Stage(stage)
		}
		if sum != st.Total() {
			t.Errorf("stages sum to %v, total %v", sum, st.Total())
		}
		return st
	}

	// Lazy update: every stage but Global was entered.
	lazy := run(true, false)
	for _, stage := range []metrics.Stage{metrics.StageVersion, metrics.StageQueries, metrics.StageCertify, metrics.StageSync, metrics.StageCommit} {
		if lazy.Stage(stage) <= 0 {
			t.Errorf("lazy update: %v stage empty", stage)
		}
	}
	if lazy.Stage(metrics.StageGlobal) != 0 {
		t.Error("global stage nonzero for lazy commit")
	}
	if lazy.Len() != 5 {
		t.Errorf("lazy update made %d visits, want 5", lazy.Len())
	}

	// Eager update: the global commit wait is the sixth stage.
	eager := run(true, true)
	if eager.Stage(metrics.StageGlobal) <= 0 {
		t.Error("global stage empty for eager commit")
	}

	// Read-only: commits locally, never certified, never ordered.
	ro := run(false, true)
	if ro.Stage(metrics.StageCertify) != 0 || ro.Stage(metrics.StageSync) != 0 || ro.Stage(metrics.StageGlobal) != 0 {
		t.Errorf("read-only commit: certify %v sync %v global %v, want all 0",
			ro.Stage(metrics.StageCertify), ro.Stage(metrics.StageSync), ro.Stage(metrics.StageGlobal))
	}
	if ro.Stage(metrics.StageQueries) <= 0 || ro.Stage(metrics.StageCommit) <= 0 {
		t.Errorf("read-only commit: queries %v commit %v, want both > 0", ro.Stage(metrics.StageQueries), ro.Stage(metrics.StageCommit))
	}
}

func TestActiveCount(t *testing.T) {
	rg := newRig(t, 1, true)
	defer rg.close()
	r := rg.replicas[0]
	if r.Active() != 0 {
		t.Fatalf("initial active = %d", r.Active())
	}
	tx, _ := r.Begin(0, nil)
	if r.Active() != 1 {
		t.Fatalf("active = %d, want 1", r.Active())
	}
	tx.Abort()
	if r.Active() != 0 {
		t.Fatalf("active after abort = %d", r.Active())
	}
	// Double abort must not underflow.
	tx.Abort()
	if r.Active() != 0 {
		t.Fatalf("active after double abort = %d", r.Active())
	}
}

// TestCrashedBatchAckKeepsEagerWait: the drainer acknowledges a batch
// itself once it is applied, even one that was in flight across a
// crash. That ack is true, and it must not end an eager wait for a
// version certified after the replica recovered: the commit below may
// return only once replica 1 has applied it.
func TestCrashedBatchAckKeepsEagerWait(t *testing.T) {
	cert := certifier.New(certifier.WithEager())
	lat := latency.NewSource(latency.Model{ApplyWriteSet: 150 * time.Millisecond, Scale: 1}, 1)
	var reps []*Replica
	for i, l := range []*latency.Source{nil, lat} {
		eng := storage.NewEngine()
		loadKV(t, eng)
		reps = append(reps, New(Config{ID: i, EarlyCert: true, Latency: l}, eng, Local(cert)))
	}
	defer func() {
		for _, r := range reps {
			r.Crash()
		}
	}()
	if err := cert.StartAt(reps[0].Version()); err != nil {
		t.Fatal(err)
	}
	origin, slow := reps[0], reps[1]

	// A lazy commit: the certifier still counts replica 1's ack for it,
	// and replica 1's drainer holds it in a slow batch apply.
	commitUpdate(t, origin, 1, "in flight")
	deadline := time.Now().Add(5 * time.Second)
	for {
		slow.mu.Lock()
		applying := len(slow.applying)
		slow.mu.Unlock()
		if applying > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("replica 1 never started a batch apply")
		}
		time.Sleep(time.Millisecond)
	}
	slow.Crash()
	if err := slow.Recover(); err != nil {
		t.Fatal(err)
	}

	tx, err := origin.Begin(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(setStmt, "after recovery", int64(2)); err != nil {
		t.Fatal(err)
	}
	res, err := tx.Commit(true)
	if err != nil {
		t.Fatal(err)
	}
	if v := slow.Version(); v < res.Version {
		t.Fatalf("eager wait for version %d ended with replica 1 at %d", res.Version, v)
	}
}
