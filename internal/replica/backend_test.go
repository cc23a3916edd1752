package replica

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"sconrep/internal/certifier"
	"sconrep/internal/pstore"
	"sconrep/internal/storage"
	"sconrep/internal/writeset"
)

// waitLogged blocks until the store's contiguous durable tail reaches
// v. Logging is asynchronous relative to apply visibility, so a test
// that needs exact recovery must wait for durability, not just for
// WaitVersion.
func waitLogged(t *testing.T, st *pstore.Store, v uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for st.Stats().LoggedVersion < v {
		if time.Now().After(deadline) {
			t.Fatalf("durable log stuck at %d, want %d", st.Stats().LoggedVersion, v)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDiskRestartBackfillsOnlyHistorySuffix is the tentpole scenario
// end to end at the replica layer: a durable replica is killed without
// warning (Crash + backend Abandon — no graceful close), its store is
// reopened from the latest checkpoint plus the WAL suffix, and the
// replica resumes via RecoverFrom. The replica must resubscribe from
// exactly the recovered Vlocal — the certifier trims its history
// through it first, so a subscription from any lower version is
// refused, and one from a higher version leaves a gap — and converge to
// byte-identical state with a never-crashed peer.
func TestDiskRestartBackfillsOnlyHistorySuffix(t *testing.T) {
	dir := t.TempDir()
	cert := certifier.New()
	eng0 := storage.NewEngine()
	loadKV(t, eng0)
	r0 := New(Config{ID: 0, EarlyCert: true}, eng0, Local(cert))
	defer r0.Crash()
	st, err := pstore.Open(dir, pstore.Options{Bootstrap: kvBoot})
	if err != nil {
		t.Fatal(err)
	}
	r1 := NewWithBackend(Config{ID: 1, EarlyCert: true}, st, Local(cert))
	defer r1.Crash()
	if err := cert.StartAt(r0.Version()); err != nil {
		t.Fatal(err)
	}

	// Refresh traffic plus one local commit on the durable replica:
	// both apply paths must feed the durable log.
	for i := 0; i < 8; i++ {
		commitUpdate(t, r0, int64(i%10), fmt.Sprintf("pre-%d", i))
	}
	commitUpdate(t, r1, 9, "local-pre")
	waitVersion(t, r1, cert.Version())
	if err := st.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	ckptV := st.Stats().CheckpointVersion
	if ckptV == 0 {
		t.Fatal("checkpoint did not advance")
	}

	// Kill -9: detach the replica and abandon the store mid-flight.
	r1.Crash()
	st.Abandon()

	// The cluster makes progress while the replica is down.
	for i := 0; i < 5; i++ {
		commitUpdate(t, r0, int64(i), fmt.Sprintf("down-%d", i))
	}
	final := cert.Version()

	// Disk restart: recover the store, then the replica from it.
	st2, err := pstore.Open(dir, pstore.Options{Bootstrap: kvBoot})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	recovered := st2.Engine().Version()
	if recovered < ckptV {
		t.Fatalf("recovered version %d below checkpoint %d", recovered, ckptV)
	}
	cert.TrimBelow(recovered)
	if err := r1.RecoverFrom(st2); err != nil {
		t.Fatalf("recovery from Vlocal %d over history trimmed through it: %v", recovered, err)
	}
	waitVersion(t, r1, final)

	// Byte-identical equivalence with the never-crashed peer.
	want, err := pstore.SnapshotAt(r0.Engine(), final)
	if err != nil {
		t.Fatal(err)
	}
	got, err := pstore.SnapshotAt(r1.Engine(), final)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatal("recovered replica state differs from never-crashed peer")
	}

	// And it serves again: commits originate here and are logged.
	res := commitUpdate(t, r1, 0, "post")
	waitVersion(t, r0, res.Version)
	if got := readKV(t, r0, 0); got != "post" {
		t.Fatalf("post-recovery commit lost: %q", got)
	}
}

// A crashed replica whose restore point fell below the certifier's
// history floor can never be backfilled; Recover must fail loudly and
// leave the replica detached rather than serve silently diverged data.
func TestRecoverFailsLoudlyOnTrimmedHistory(t *testing.T) {
	rg := newRig(t, 2, true)
	defer rg.close()
	commitUpdate(t, rg.replicas[0], 1, "before")
	waitVersion(t, rg.replicas[1], rg.cert.Version())
	rg.replicas[1].Crash()

	for i := 0; i < 6; i++ {
		commitUpdate(t, rg.replicas[0], int64(i), fmt.Sprintf("during-%d", i))
	}
	// Trim everything but the newest version: the crashed replica's
	// suffix is gone.
	rg.cert.TrimBelow(rg.cert.Version() - 1)

	vlocal := rg.replicas[1].Version()
	err := rg.replicas[1].Recover()
	var trimmed *certifier.TrimmedError
	if !errors.As(err, &trimmed) {
		t.Fatalf("Recover over a trimmed history gap: %v, want a *certifier.TrimmedError", err)
	}
	if trimmed.After != vlocal || trimmed.Floor != rg.cert.Version()-1 {
		t.Fatalf("refusal %+v, want after %d, floor %d", trimmed, vlocal, rg.cert.Version()-1)
	}
	if !rg.replicas[1].Crashed() {
		t.Fatal("replica serving after a failed recovery")
	}
	if v := rg.replicas[1].Version(); v != vlocal {
		t.Fatalf("refused replica moved from %d to %d", vlocal, v)
	}
}

// In-process crash recovery with the SAME backend keeps the durable
// log contiguous: a batch in flight across the crash logs before the
// window lets a backfill in, versions backfilled from history are
// logged in order after it, and the store accepts the runs that follow.
func TestRecoverRealignsDurableLog(t *testing.T) {
	dir := t.TempDir()
	cert := certifier.New()
	eng0 := storage.NewEngine()
	loadKV(t, eng0)
	r0 := New(Config{ID: 0, EarlyCert: true}, eng0, Local(cert))
	defer r0.Crash()
	st, err := pstore.Open(dir, pstore.Options{Bootstrap: kvBoot})
	if err != nil {
		t.Fatal(err)
	}
	r1 := NewWithBackend(Config{ID: 1, EarlyCert: true}, st, Local(cert))
	defer r1.Crash()
	if err := cert.StartAt(r0.Version()); err != nil {
		t.Fatal(err)
	}

	commitUpdate(t, r0, 1, "a")
	waitVersion(t, r1, cert.Version())
	r1.Crash()
	for i := 0; i < 4; i++ {
		commitUpdate(t, r0, int64(i), fmt.Sprintf("b-%d", i))
	}
	if err := r1.Recover(); err != nil {
		t.Fatal(err)
	}
	waitVersion(t, r1, cert.Version())
	commitUpdate(t, r1, 5, "after-recover")
	final := cert.Version()
	waitVersion(t, r1, final)
	waitVersion(t, r0, final)
	waitLogged(t, st, final)

	// Everything — pre-crash, backfilled, and post-recovery — must be
	// durable: abandon the store and recover from disk alone.
	r1.Crash()
	st.Abandon()
	st2, err := pstore.Open(dir, pstore.Options{Bootstrap: kvBoot})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if got := st2.Engine().Version(); got != final {
		t.Fatalf("durable recovery reached %d, want %d", got, final)
	}
	want, err := pstore.SnapshotAt(r0.Engine(), final)
	if err != nil {
		t.Fatal(err)
	}
	got, err := pstore.SnapshotAt(st2.Engine(), final)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatal("durable state differs from never-crashed peer")
	}
}

// orderedLog is a storage.Backend that records the start of every
// logged run and flags any run that does not start at its tail + 1.
// A run starting at slowAt takes 50 ms to log.
type orderedLog struct {
	storage.MemBackend
	slowAt uint64

	mu     sync.Mutex
	tail   uint64
	starts []uint64
	gaps   []string
}

func (o *orderedLog) LogApplied(wss []*writeset.WriteSet, start uint64) error {
	if start == o.slowAt {
		time.Sleep(50 * time.Millisecond)
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	o.starts = append(o.starts, start)
	if start != o.tail+1 {
		o.gaps = append(o.gaps, fmt.Sprintf("run %d logged at tail %d", start, o.tail))
	}
	o.tail = max(o.tail, start+uint64(len(wss))-1)
	return nil
}

// TestLocalCommitLogsBeforeLaterRefresh: a local commit installs and
// logs inside the apply window, so the refresh queued right behind it
// cannot reach the durable log first, however slow the commit's append.
func TestLocalCommitLogsBeforeLaterRefresh(t *testing.T) {
	eng := storage.NewEngine()
	loadKV(t, eng) // Vlocal = 1
	fake := newFakeCert()
	dur := &orderedLog{MemBackend: storage.MemBackend{Eng: eng}, slowAt: 2, tail: 1}
	r := NewWithBackend(Config{ID: 0, EarlyCert: true}, dur, fake)
	defer r.Crash()

	tx, err := r.Begin(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(setStmt, "local", int64(9)); err != nil {
		t.Fatal(err)
	}
	// The commit takes version 2; refresh 3 is queued before its
	// decision returns, so the drainer waits on it from the start.
	fake.mu.Lock()
	fake.nextCommit = 2
	fake.onCertify = func(uint64, uint64, *writeset.WriteSet) {
		fake.queue.Put(mkRefresh(t, eng, 3, 3, "r3"))
	}
	fake.mu.Unlock()
	if _, err := tx.Commit(false); err != nil {
		t.Fatal(err)
	}
	waitVersion(t, r, 3)
	deadline := time.Now().Add(5 * time.Second)
	for {
		dur.mu.Lock()
		starts, gaps := append([]uint64(nil), dur.starts...), dur.gaps
		dur.mu.Unlock()
		if len(gaps) > 0 {
			t.Fatalf("runs reached the log out of order: %v", gaps)
		}
		if len(starts) == 2 {
			if want := []uint64{2, 3}; !reflect.DeepEqual(starts, want) {
				t.Fatalf("logged runs %v, want %v", starts, want)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("logged runs %v, want [2 3]", starts)
		}
		time.Sleep(time.Millisecond)
	}
}
