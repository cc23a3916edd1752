package replica

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"sconrep/internal/certifier"
	"sconrep/internal/latency"
	"sconrep/internal/obs/dtrace"
	"sconrep/internal/storage"
	"sconrep/internal/writeset"
)

// fakeCert is a scriptable CertService for deterministic batch tests:
// Certify hands out a predetermined version, Subscribe returns a
// mailbox the test puts refreshes into directly, and History replays
// whatever the test recorded.
type fakeCert struct {
	mu         sync.Mutex
	queue      *certifier.Mailbox
	history    []certifier.Refresh
	acks       []uint64
	nextCommit uint64 // version the next Certify assigns
	// onCertify, when set, runs after a commit decision is made but
	// before it returns to the replica — the window where a reconnect
	// backfill can race the origin's committing claim.
	onCertify func(v, txnID uint64, ws *writeset.WriteSet)
}

func newFakeCert() *fakeCert { return &fakeCert{queue: certifier.NewMailbox()} }

func (f *fakeCert) Certify(origin int, txnID, snapshot uint64, ws *writeset.WriteSet, _ dtrace.SpanContext) (certifier.Decision, error) {
	f.mu.Lock()
	v := f.nextCommit
	f.nextCommit = 0
	hook := f.onCertify
	f.mu.Unlock()
	if v == 0 {
		return certifier.Decision{Commit: false}, nil
	}
	if hook != nil {
		hook(v, txnID, ws)
	}
	return certifier.Decision{Commit: true, Version: v}, nil
}

func (f *fakeCert) Subscribe(replicaID int) RefreshSource {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.queue = certifier.NewMailbox()
	return f.queue
}

func (f *fakeCert) Unsubscribe(replicaID int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.queue.Close()
}

func (f *fakeCert) Applied(replicaID int, v uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.acks = append(f.acks, v)
}

func (f *fakeCert) History(after uint64) []certifier.Refresh {
	f.mu.Lock()
	defer f.mu.Unlock()
	var out []certifier.Refresh
	for _, r := range f.history {
		if r.Version > after {
			out = append(out, r)
		}
	}
	return out
}

// mkRefresh builds a refresh writing kv[k] = val at version v, with
// the key encoded exactly as the engine's schema encodes it.
func mkRefresh(t *testing.T, eng *storage.Engine, v uint64, k int64, val string) certifier.Refresh {
	t.Helper()
	schema, ok := eng.Schema("kv")
	if !ok {
		t.Fatal("kv schema missing")
	}
	row := []any{k, val}
	key, err := schema.KeyOf(row)
	if err != nil {
		t.Fatal(err)
	}
	return certifier.Refresh{
		TxnID:   v,
		Version: v,
		Origin:  -1,
		WS:      &writeset.WriteSet{Items: []writeset.Item{{Table: "kv", Key: key, Op: writeset.OpUpdate, Row: row}}},
	}
}

// TestBatchStopsAtLocalCommitVersion drives the exact interleaving the
// batch collector must respect: refreshes 2,3 and 5,6 arrive while a
// local commit owns version 4. The drainer must group-apply [2,3],
// stop, let the local commit take 4, then group-apply [5,6] — never
// wait for a refresh at 4 and never apply past a version owned by a
// local commit.
func TestBatchStopsAtLocalCommitVersion(t *testing.T) {
	eng := storage.NewEngine()
	loadKV(t, eng) // Vlocal = 1
	fake := newFakeCert()
	r := New(Config{ID: 0, EarlyCert: true}, eng, fake)
	defer r.Crash()

	tx, err := r.Begin(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(setStmt, "local", int64(9)); err != nil {
		t.Fatal(err)
	}
	fake.mu.Lock()
	fake.nextCommit = 4
	fake.mu.Unlock()

	// Commit blocks until Vlocal reaches 3.
	done := make(chan error, 1)
	var res CommitResult
	go func() {
		var cerr error
		res, cerr = tx.Commit(false)
		done <- cerr
	}()

	// Out-of-order arrival: the tail of the post-commit batch first.
	fake.queue.Put(mkRefresh(t, eng, 5, 5, "r5"), mkRefresh(t, eng, 6, 6, "r6"))
	select {
	case err := <-done:
		t.Fatalf("commit finished before predecessors applied: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	fake.queue.Put(mkRefresh(t, eng, 2, 2, "r2"), mkRefresh(t, eng, 3, 3, "r3"))

	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("commit stuck; Vlocal = %d", r.Version())
	}
	if res.Version != 4 {
		t.Fatalf("commit version = %d, want 4", res.Version)
	}
	waitVersion(t, r, 6)
	if got := r.AppliedRefreshes(); got != 4 {
		t.Fatalf("applied refreshes = %d, want 4", got)
	}
	for k, want := range map[int64]string{2: "r2", 3: "r3", 5: "r5", 6: "r6", 9: "local"} {
		if got := readKV(t, r, k); got != want {
			t.Fatalf("kv[%d] = %q, want %q", k, got, want)
		}
	}
}

// TestCrashMidBatchRecoversViaHistory crashes the replica while the
// drainer is inside a group apply (the latency source keeps it there)
// and recovers through History. The engine retains whatever prefix the
// in-flight batch committed — durable state — and the catch-up must
// backfill exactly the rest, raise the serve floor, and leave the
// replica identical to a crash-free one.
func TestCrashMidBatchRecoversViaHistory(t *testing.T) {
	eng := storage.NewEngine()
	loadKV(t, eng) // Vlocal = 1
	fake := newFakeCert()
	lat := latency.NewSource(latency.Model{ApplyWriteSet: 2 * time.Millisecond, Scale: 1}, 1)
	r := New(Config{ID: 0, EarlyCert: true, Latency: lat}, eng, fake)
	defer r.Crash()

	const last = 21
	var backlog []certifier.Refresh
	for v := uint64(2); v <= last; v++ {
		ref := mkRefresh(t, eng, v, int64(v%10), fmt.Sprintf("v%d", v))
		backlog = append(backlog, ref)
		fake.mu.Lock()
		fake.history = append(fake.history, ref)
		fake.mu.Unlock()
	}
	fake.queue.Put(backlog...)

	// Crash somewhere inside the batch apply window.
	time.Sleep(5 * time.Millisecond)
	r.Crash()
	if !r.Crashed() {
		t.Fatal("not crashed")
	}

	if err := r.Recover(); err != nil {
		t.Fatal(err)
	}
	waitVersion(t, r, last)
	for v := uint64(12); v <= last; v++ {
		if got, want := readKV(t, r, int64(v%10)), fmt.Sprintf("v%d", v); got != want {
			t.Fatalf("kv[%d] = %q, want %q", v%10, got, want)
		}
	}
	// Every replayed version may already be acknowledged elsewhere:
	// transactions must not start below the recovery serve floor.
	tx, err := r.Begin(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Abort()
	if tx.Snapshot() < last {
		t.Fatalf("post-recovery snapshot %d below serve floor %d", tx.Snapshot(), last)
	}
}

// TestCommitAdoptsOwnBackfilledRefresh pins the interleaving chaos
// found: certifier history includes the replica's OWN commits, so a
// reconnect backfill can deliver a transaction's writeset as a refresh
// before the origin's Commit claims its version slot. The drainer then
// installs it first, and the local commit must adopt that apply —
// committing again would be a version-order panic.
func TestCommitAdoptsOwnBackfilledRefresh(t *testing.T) {
	eng := storage.NewEngine()
	loadKV(t, eng) // Vlocal = 1
	fake := newFakeCert()
	r := New(Config{ID: 0, EarlyCert: true}, eng, fake)
	defer r.Crash()

	tx, err := r.Begin(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(setStmt, "mine", int64(3)); err != nil {
		t.Fatal(err)
	}
	// Certify assigns version 2 and, before the decision reaches the
	// origin, replays it through the refresh stream (exactly what a
	// resubscribe backfill does) — and holds the reply until the
	// drainer has installed it, forcing the lost-claim interleaving.
	fake.mu.Lock()
	fake.nextCommit = 2
	fake.onCertify = func(v, txnID uint64, ws *writeset.WriteSet) {
		fake.queue.Put(certifier.Refresh{TxnID: txnID, Version: v, Origin: -1, WS: ws})
		deadline := time.Now().Add(5 * time.Second)
		for eng.Version() < v {
			if time.Now().After(deadline) {
				t.Error("backfilled refresh never applied")
				return
			}
			time.Sleep(time.Millisecond)
		}
	}
	fake.mu.Unlock()

	res, err := tx.Commit(false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Version != 2 {
		t.Fatalf("commit version = %d, want 2", res.Version)
	}
	if got := readKV(t, r, 3); got != "mine" {
		t.Fatalf("kv[3] = %q, want %q", got, "mine")
	}
	if r.Version() != 2 {
		t.Fatalf("Vlocal = %d, want 2 (no double apply)", r.Version())
	}
	// A follow-up transaction works normally afterwards.
	tx2, err := r.Begin(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer tx2.Abort()
	if tx2.Snapshot() != 2 {
		t.Fatalf("snapshot = %d, want 2", tx2.Snapshot())
	}
	// The same race can leave the backfilled copy in the reorder buffer
	// after its version is published (admitted against a pre-apply
	// Vlocal). Plant one: the drainer drops it the next time it idles.
	r.mu.Lock()
	r.reorder[2] = certifier.Refresh{TxnID: tx.id, Version: 2, Origin: -1, WS: &writeset.WriteSet{}}
	r.cond.Broadcast()
	r.mu.Unlock()
	deadline := time.Now().Add(5 * time.Second)
	for {
		r.mu.Lock()
		stale := len(r.reorder)
		r.mu.Unlock()
		if stale == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stale reorder entry survived an idle drainer: %d left", stale)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestEarlyCertIgnoresStaleReorderEntry: a duplicate refresh that
// reached the reorder buffer after its version was published stays
// there until the drainer next idles. A transaction whose snapshot
// already includes that version must not be killed by it.
func TestEarlyCertIgnoresStaleReorderEntry(t *testing.T) {
	rg := newRig(t, 2, true)
	defer rg.close()
	r := rg.replicas[1]

	res := commitUpdate(t, rg.replicas[0], 7, "first")
	waitVersion(t, r, res.Version)
	dup := rg.cert.History(res.Version - 1)
	if len(dup) == 0 || dup[0].Version != res.Version {
		t.Fatalf("history after %d = %v", res.Version-1, dup)
	}
	tx, err := r.Begin(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Abort()
	// No broadcast: the drainer sleeps on, so the entry is still there
	// when the write statement scans the buffer.
	r.mu.Lock()
	r.reorder[res.Version] = dup[0]
	r.mu.Unlock()
	if _, err := tx.Exec(setStmt, "second", int64(7)); err != nil {
		t.Fatalf("write over an already visible version: %v", err)
	}
	if _, err := tx.Commit(false); err != nil {
		t.Fatal(err)
	}
}

// TestEarlyCertKillMidBatch pins an active transaction against a
// conflict sitting in the MIDDLE of an in-flight batch: the refreshes
// left the reorder buffer when the drainer collected them, so only the
// applying-window scan can see them. The transaction's write statement
// must still die with ErrEarlyAbort.
func TestEarlyCertKillMidBatch(t *testing.T) {
	eng := storage.NewEngine()
	loadKV(t, eng) // Vlocal = 1
	fake := newFakeCert()
	// A wide apply window so the statement reliably lands mid-batch.
	lat := latency.NewSource(latency.Model{ApplyWriteSet: 10 * time.Millisecond, Scale: 1}, 1)
	r := New(Config{ID: 0, EarlyCert: true, Latency: lat, DBSlots: 2}, eng, fake)
	defer r.Crash()

	tx, err := r.Begin(0, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Backlog [2..31]; the first collected batch is [2..9] (the whole
	// backlog is inserted under one lock hold, so the collector sees it
	// all and cuts at maxApplyBatch). Version 5 — mid-first-batch —
	// writes key 7.
	var backlog []certifier.Refresh
	for v := uint64(2); v <= 31; v++ {
		k := int64(v % 5) // keys 0..4; never 7
		if v == 5 {
			k = 7
		}
		backlog = append(backlog, mkRefresh(t, eng, v, k, fmt.Sprintf("v%d", v)))
	}
	fake.queue.Put(backlog...)

	// Wait until the drainer has the batch in flight.
	deadline := time.Now().Add(5 * time.Second)
	for {
		r.mu.Lock()
		applying := len(r.applying)
		r.mu.Unlock()
		if applying > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("drainer never entered a batch apply")
		}
		time.Sleep(time.Millisecond)
	}

	// The write conflicts with version 5, which is neither queued nor
	// applied — it is mid-batch. Early certification must see it.
	_, execErr := tx.Exec(setStmt, "loser", int64(7))
	if execErr == nil {
		// The batch finished under us (slow CI machine): the conflict is
		// now applied, so early certification cannot fire — but the
		// write raced a refresh the engine already holds, and the commit
		// path must not succeed against a stale snapshot either way.
		t.Skip("apply window closed before the statement ran")
	}
	if !errors.Is(execErr, ErrEarlyAbort) {
		t.Fatalf("exec err = %v, want ErrEarlyAbort", execErr)
	}
	waitVersion(t, r, 31)
}
