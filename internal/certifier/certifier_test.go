package certifier

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"sconrep/internal/shard"
	"sconrep/internal/wal"
	"sconrep/internal/writeset"
)

func ws(keys ...string) *writeset.WriteSet {
	w := &writeset.WriteSet{}
	for _, k := range keys {
		w.Items = append(w.Items, writeset.Item{
			Table: "t", Key: k, Op: writeset.OpUpdate, Row: []any{k},
		})
	}
	return w
}

func TestCertifyCommitAndConflict(t *testing.T) {
	c := New()
	d1, err := c.Certify(0, 1, 0, ws("a"))
	if err != nil || !d1.Commit || d1.Version != 1 {
		t.Fatalf("d1 = %+v, %v", d1, err)
	}
	// Same snapshot, conflicting key: abort.
	d2, err := c.Certify(1, 2, 0, ws("a"))
	if err != nil || d2.Commit {
		t.Fatalf("d2 = %+v, %v; want abort", d2, err)
	}
	// Same snapshot, disjoint key: commit.
	d3, err := c.Certify(1, 3, 0, ws("b"))
	if err != nil || !d3.Commit || d3.Version != 2 {
		t.Fatalf("d3 = %+v, %v", d3, err)
	}
	// Fresh snapshot over the conflicting key: commit.
	d4, err := c.Certify(0, 4, 2, ws("a"))
	if err != nil || !d4.Commit || d4.Version != 3 {
		t.Fatalf("d4 = %+v, %v", d4, err)
	}
	if c.Version() != 3 {
		t.Fatalf("Version = %d, want 3", c.Version())
	}
}

func TestCertifyRejectsEmptyWriteset(t *testing.T) {
	c := New()
	if _, err := c.Certify(0, 1, 0, &writeset.WriteSet{}); err == nil {
		t.Fatal("empty writeset accepted")
	}
}

func TestRefreshFanOutSkipsOrigin(t *testing.T) {
	c := New()
	s0 := c.Subscribe(0)
	s1 := c.Subscribe(1)
	s2 := c.Subscribe(2)

	if _, err := c.Certify(1, 10, 0, ws("x")); err != nil {
		t.Fatal(err)
	}
	for _, sub := range []*Subscription{s0, s2} {
		batch, ok := sub.Take()
		if !ok || len(batch) != 1 || batch[0].Version != 1 || batch[0].TxnID != 10 {
			t.Fatalf("replica %d batch = %v, %v", sub.replicaID, batch, ok)
		}
	}
	if n := s1.QueueLen(); n != 0 {
		t.Fatalf("origin received %d refreshes", n)
	}
}

func TestPendingVisibleForEarlyCertification(t *testing.T) {
	c := New()
	s0 := c.Subscribe(0)
	_, _ = c.Certify(1, 1, 0, ws("k1"))
	_, _ = c.Certify(1, 2, 1, ws("k2"))
	pending := s0.Pending()
	if len(pending) != 2 {
		t.Fatalf("pending = %d, want 2", len(pending))
	}
	if !pending[0].WS.ConflictsWith(ws("k1")) {
		t.Fatal("pending writeset content lost")
	}
	// Pending peek must not consume.
	batch, ok := s0.Take()
	if !ok || len(batch) != 2 {
		t.Fatalf("take after peek = %d, %v", len(batch), ok)
	}
}

func TestUnsubscribeClosesMailbox(t *testing.T) {
	c := New()
	s := c.Subscribe(3)
	done := make(chan bool)
	go func() {
		_, ok := s.Take()
		done <- ok
	}()
	c.Unsubscribe(3)
	select {
	case ok := <-done:
		if ok {
			t.Fatal("Take returned ok after Unsubscribe")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Take did not unblock on Unsubscribe")
	}
	// Certifying after unsubscribe must not deliver to the dead mailbox.
	if _, err := c.Certify(0, 9, 0, ws("z")); err != nil {
		t.Fatal(err)
	}
}

// noticed takes what is queued on an origin's subscription, which must
// hold notices only, and returns the highest; ok is false when nothing
// is queued.
func noticed(t *testing.T, sub *Subscription) (through uint64, ok bool) {
	t.Helper()
	if sub.QueueLen() == 0 {
		return 0, false
	}
	batch, _ := sub.Take()
	for _, r := range batch {
		if r.Version != 0 || r.WS != nil {
			t.Fatalf("origin's subscription carries a refresh: %+v", r)
		}
		through = max(through, r.GlobalThrough)
	}
	return through, true
}

func TestEagerGlobalCommit(t *testing.T) {
	c := New(WithEager())
	s0 := c.Subscribe(0)
	c.Subscribe(1)
	c.Subscribe(2)
	// The subscription opens with where the origin's commits stand.
	if v, ok := noticed(t, s0); !ok || v != 0 || !s0.GlobalTracked() {
		t.Fatalf("opening notice = %d, %v; want 0, true", v, ok)
	}

	d, err := c.Certify(0, 1, 0, ws("a"))
	if err != nil || !d.Commit {
		t.Fatal(err)
	}
	if v, ok := noticed(t, s0); ok {
		t.Fatalf("global commit through %d before any ack", v)
	}
	c.Applied(1, d.Version)
	if v, ok := noticed(t, s0); ok {
		t.Fatalf("global commit through %d after one of two acks", v)
	}
	c.Applied(2, d.Version)
	if v, _ := noticed(t, s0); v != d.Version {
		t.Fatalf("global commit through %d after both acks, want %d", v, d.Version)
	}
	// A resubscription opens with the same watermark.
	if v, _ := noticed(t, c.Subscribe(0)); v != d.Version {
		t.Fatalf("resubscription opens through %d, want %d", v, d.Version)
	}
}

// TestLazySendsNoNotice: without WithEager an origin's subscription
// stays empty, and says that nobody tracks global commits.
func TestLazySendsNoNotice(t *testing.T) {
	c := New()
	s0 := c.Subscribe(0)
	if s0.GlobalTracked() {
		t.Fatal("a lazy certifier's subscription claims to track global commits")
	}
	c.Subscribe(1)
	d, _ := c.Certify(0, 1, 0, ws("a"))
	c.Applied(1, d.Version)
	if n := s0.QueueLen(); n != 0 {
		t.Fatalf("lazy certifier queued %d entries for the origin", n)
	}
}

func TestEagerSingleReplicaNeedsNoWait(t *testing.T) {
	c := New(WithEager())
	s0 := c.Subscribe(0)
	d, _ := c.Certify(0, 1, 0, ws("a"))
	if v, _ := noticed(t, s0); v != d.Version {
		t.Fatalf("single-replica eager commit: through %d at certify time, want %d", v, d.Version)
	}
}

func TestEagerReleasedOnReplicaCrash(t *testing.T) {
	c := New(WithEager())
	s0 := c.Subscribe(0)
	c.Subscribe(1)
	d, _ := c.Certify(0, 1, 0, ws("a"))
	noticed(t, s0)   // the opening notice
	c.Unsubscribe(1) // crash: the waiter must not block forever
	if v, _ := noticed(t, s0); v != d.Version {
		t.Fatalf("eager wait not released by crash: through %d, want %d", v, d.Version)
	}
}

// TestRestoredVersionsAreGlobal: a certifier restored from its log has
// no wait for what the previous incarnation certified, so a replica
// still waiting for one of those is released by its resubscription.
func TestRestoredVersionsAreGlobal(t *testing.T) {
	log := wal.NewMemory()
	old := New(WithEager(), WithWAL(log))
	old.Subscribe(0)
	old.Subscribe(1)
	d, _ := old.Certify(0, 1, 0, ws("a")) // replica 1 never acks

	c := New(WithEager())
	if err := c.RestoreFromWAL(func(fn func(*wal.Record) error) error {
		return wal.Replay(bytes.NewReader(log.MemoryBytes()), fn)
	}); err != nil {
		t.Fatal(err)
	}
	if v, _ := noticed(t, c.Subscribe(0)); v != d.Version {
		t.Fatalf("after restore the subscription opens through %d, want %d", v, d.Version)
	}
}

// TestAppliedLazyTakesNoLock: a certifier built without WithEager has
// no wait to clear, and replicas call Applied once per applied batch —
// it must not queue behind the refresh fan-out's lock.
func TestAppliedLazyTakesNoLock(t *testing.T) {
	c := New()
	c.mu.Lock()
	defer c.mu.Unlock()
	returned := make(chan struct{})
	go func() {
		c.Applied(1, 1)
		close(returned)
	}()
	select {
	case <-returned:
	case <-time.After(2 * time.Second):
		t.Fatal("Applied on a lazy certifier waited for c.mu")
	}
}

func TestHistoryCatchUp(t *testing.T) {
	c := New()
	for i := uint64(1); i <= 5; i++ {
		if _, err := c.Certify(0, i, i-1, ws(fmt.Sprintf("k%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	h := c.History(2)
	if len(h) != 3 || h[0].Version != 3 || h[2].Version != 5 {
		t.Fatalf("History(2) = %v", h)
	}
	if h := c.History(5); len(h) != 0 {
		t.Fatalf("History(5) = %v", h)
	}
}

func TestTrimBelow(t *testing.T) {
	c := New()
	for i := uint64(1); i <= 5; i++ {
		_, _ = c.Certify(0, i, i-1, ws(fmt.Sprintf("k%d", i)))
	}
	c.TrimBelow(3)
	if h := c.History(0); len(h) != 2 {
		t.Fatalf("history after trim = %v", h)
	}
	// A snapshot below the floor must be rejected, not silently passed.
	if _, err := c.Certify(0, 99, 2, ws("k9")); !errors.Is(err, ErrSnapshotTooOld) {
		t.Fatalf("old snapshot err = %v", err)
	}
	// At or above the floor still works.
	if d, err := c.Certify(0, 100, 3, ws("k9")); err != nil || !d.Commit {
		t.Fatalf("at-floor certify = %+v, %v", d, err)
	}
}

func TestDurabilityOrderAndRestore(t *testing.T) {
	log := wal.NewMemory()
	c := New(WithWAL(log))
	// Concurrent certifications: the log must come out in version order.
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Distinct keys so everything commits; snapshot 0 is fine
			// because there are no conflicts.
			if _, err := c.Certify(0, uint64(i), 0, ws(fmt.Sprintf("key-%d", i))); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()

	var versions []uint64
	if err := wal.Replay(bytes.NewReader(log.MemoryBytes()), func(r *wal.Record) error {
		versions = append(versions, r.Version)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(versions) != 50 {
		t.Fatalf("logged %d records, want 50", len(versions))
	}
	for i, v := range versions {
		if v != uint64(i+1) {
			t.Fatalf("log out of order at %d: %v", i, versions[:i+1])
		}
	}

	// Restore a fresh certifier from the log.
	c2 := New()
	err := c2.RestoreFromWAL(func(fn func(*wal.Record) error) error {
		return wal.Replay(bytes.NewReader(log.MemoryBytes()), fn)
	})
	if err != nil {
		t.Fatal(err)
	}
	if c2.Version() != 50 {
		t.Fatalf("restored version = %d, want 50", c2.Version())
	}
	// The restored conflict index must still detect conflicts.
	if d, err := c2.Certify(0, 999, 10, ws("key-20")); err != nil || d.Commit {
		t.Fatalf("restored certifier allowed a conflicting commit: %+v, %v", d, err)
	}
	if h := c2.History(49); len(h) != 1 || h[0].Version != 50 {
		t.Fatalf("restored history = %v", h)
	}
}

// TestRestoreRejectsGaps: one replay, two properties, for every shard
// count. A home shard's records must ascend in log order; a missing
// version is a skip marker only when another shard could have lost it.
func TestRestoreRejectsGaps(t *testing.T) {
	four, err := shard.New(4, map[string]int{"t0": 0, "t1": 1, "t2": 2, "t3": 3})
	if err != nil {
		t.Fatal(err)
	}
	rec := func(table string, v uint64) *wal.Record {
		return &wal.Record{Version: v, TxnID: v, WriteSet: writeset.WriteSet{Items: []writeset.Item{
			{Table: table, Key: "k", Op: writeset.OpUpdate, Row: []any{"k"}},
		}}}
	}
	for _, tc := range []struct {
		name  string
		smap  *shard.Map
		recs  []*wal.Record
		skips int // skip markers in the restored history; -1 = refused
	}{
		{"one shard, gap", nil, []*wal.Record{rec("t", 1), rec("t", 3)}, -1},
		{"one shard, out of order", nil, []*wal.Record{rec("t", 1), rec("t", 3), rec("t", 2)}, -1},
		{"four shards, gap", four, []*wal.Record{rec("t0", 1), rec("t1", 3)}, 1},
		{"four shards, interleaved", four, []*wal.Record{rec("t0", 1), rec("t1", 3), rec("t0", 2)}, 0},
		{"four shards, same-shard inversion", four, []*wal.Record{rec("t0", 1), rec("t1", 3), rec("t1", 2)}, -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := New(WithShards(tc.smap))
			err := c.RestoreFromWAL(func(fn func(*wal.Record) error) error {
				for _, r := range tc.recs {
					if err := fn(r); err != nil {
						return err
					}
				}
				return nil
			})
			if tc.skips < 0 {
				if err == nil {
					t.Fatal("corrupt WAL accepted")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			h := c.History(0)
			skips := 0
			for i, r := range h {
				if r.Version != uint64(i+1) {
					t.Fatalf("history = %v, want versions 1..3", h)
				}
				if r.WS == nil {
					skips++
				}
			}
			if c.Version() != 3 || len(h) != 3 || skips != tc.skips {
				t.Fatalf("restored to version %d with %d entries, %d skip markers; want 3, 3, %d", c.Version(), len(h), skips, tc.skips)
			}
		})
	}
}

func TestConcurrentCertifyAssignsDistinctVersions(t *testing.T) {
	c := New()
	const n = 200
	versions := make([]uint64, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			d, err := c.Certify(i%4, uint64(i), 0, ws(fmt.Sprintf("k%d", i)))
			if err != nil || !d.Commit {
				t.Errorf("certify %d: %+v, %v", i, d, err)
				return
			}
			versions[i] = d.Version
		}(i)
	}
	wg.Wait()
	seen := map[uint64]bool{}
	for _, v := range versions {
		if v == 0 || v > n || seen[v] {
			t.Fatalf("bad version assignment: %v", versions)
		}
		seen[v] = true
	}
}

func TestMailboxOrderIndependence(t *testing.T) {
	// The contract is that subscribers may receive refreshes out of
	// version order; verify Take returns everything that was put, in put
	// order, whether it arrived one refresh per Put (the certifier's
	// fan-out) or as one several-refresh Put (a wire client's frame).
	for _, several := range []bool{false, true} {
		t.Run(fmt.Sprintf("several=%v", several), func(t *testing.T) {
			mb := NewMailbox()
			var rs []Refresh
			for i := 0; i < 10; i++ {
				rs = append(rs, Refresh{Version: uint64(10 - i)})
			}
			if several {
				mb.Put(rs...)
			} else {
				for _, r := range rs {
					mb.Put(r)
				}
			}
			batch, ok := mb.Take()
			if !ok || len(batch) != len(rs) {
				t.Fatalf("take = %d, %v", len(batch), ok)
			}
			for i := range batch {
				if batch[i].Version != rs[i].Version {
					t.Fatalf("take[%d] = version %d, want %d", i, batch[i].Version, rs[i].Version)
				}
			}
			if n := mb.QueueLen(); n != 0 {
				t.Fatalf("%d entries left after the drain", n)
			}
			mb.Close()
			mb.Put(rs...)
			if _, ok := mb.Take(); ok {
				t.Fatal("a closed mailbox took a put")
			}
		})
	}
}
