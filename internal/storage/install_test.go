package storage

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"sconrep/internal/writeset"
)

func updateWS(table string, key int64, val int64) *writeset.WriteSet {
	return &writeset.WriteSet{Items: []writeset.Item{
		{Table: table, Key: EncodeKey(key), Op: writeset.OpUpdate, Row: []any{key, val}},
	}}
}

func newKVEngine(t testing.TB, keys int64) *Engine {
	t.Helper()
	e := NewEngine()
	if err := e.CreateTable(&Schema{
		Table:   "kv",
		Columns: []Column{{Name: "k", Type: TInt}, {Name: "v", Type: TInt}},
		Key:     []string{"k"},
	}); err != nil {
		t.Fatal(err)
	}
	tx := e.Begin()
	for k := int64(0); k < keys; k++ {
		if err := tx.Insert("kv", []any{k, int64(0)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tx.CommitLocal(); err != nil {
		t.Fatal(err)
	}
	return e
}

// TestInstallInvisibleUntilPublish proves the split write path: an
// installed version stays unobservable to new snapshots until
// PublishVersion raises the watermark past it.
func TestInstallInvisibleUntilPublish(t *testing.T) {
	e := newKVEngine(t, 2) // version 1
	if err := e.InstallWriteSets([]*writeset.WriteSet{updateWS("kv", 0, 42)}, 2); err != nil {
		t.Fatal(err)
	}
	if e.Version() != 1 {
		t.Fatalf("Version after install = %d, want 1 (unpublished)", e.Version())
	}
	tx := e.Begin()
	r, ok, err := tx.Get("kv", EncodeKey(int64(0)))
	if err != nil || !ok {
		t.Fatalf("Get = %v, %v, %v", r, ok, err)
	}
	if r[1].(int64) != 0 {
		t.Fatalf("unpublished install visible: row = %v", r)
	}
	e.PublishVersion(2)
	if e.Version() != 2 {
		t.Fatalf("Version after publish = %d, want 2", e.Version())
	}
	tx = e.Begin()
	r, _, _ = tx.Get("kv", EncodeKey(int64(0)))
	if r[1].(int64) != 42 {
		t.Fatalf("published install not visible: row = %v", r)
	}
	// The per-table last-write bound tracks installs even before publish.
	if vt := e.TableVersionsAt([]string{"kv"}, 2)["kv"]; vt != 2 {
		t.Fatalf("TableVersionsAt = %d, want 2", vt)
	}
}

// TestPublishVersionMonotonic proves stale and duplicate watermark
// announcements are no-ops.
func TestPublishVersionMonotonic(t *testing.T) {
	e := newKVEngine(t, 1) // version 1
	e.PublishVersion(0)
	e.PublishVersion(1)
	if e.Version() != 1 {
		t.Fatalf("Version regressed to %d", e.Version())
	}
	if err := e.InstallWriteSets([]*writeset.WriteSet{updateWS("kv", 0, 1)}, 2); err != nil {
		t.Fatal(err)
	}
	if err := e.InstallWriteSets([]*writeset.WriteSet{updateWS("kv", 0, 2)}, 3); err != nil {
		t.Fatal(err)
	}
	e.PublishVersion(3)
	e.PublishVersion(2) // late lower watermark from a slower worker
	if e.Version() != 3 {
		t.Fatalf("Version = %d, want 3", e.Version())
	}
}

// TestInstallBehindPublishedRejected proves the loud-failure check: an
// install at or below the watermark is an ordering bug.
func TestInstallBehindPublishedRejected(t *testing.T) {
	e := newKVEngine(t, 1) // version 1
	if err := e.InstallWriteSets([]*writeset.WriteSet{updateWS("kv", 0, 9)}, 1); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("install at published version: err = %v, want ErrBadVersion", err)
	}
}

// TestInstallRunRewritesRecord pins the run precondition as the code
// needs it: one run may write a record as often as it likes, because
// the run's one goroutine links those writes in version order. After
// the publish, every version in the run reads its own write.
func TestInstallRunRewritesRecord(t *testing.T) {
	e := newKVEngine(t, 2) // version 1
	run := []*writeset.WriteSet{
		updateWS("kv", 0, 20), updateWS("kv", 1, 30), updateWS("kv", 0, 40), updateWS("kv", 0, 50),
	}
	if err := e.InstallWriteSets(run, 2); err != nil {
		t.Fatal(err)
	}
	e.PublishVersion(5)
	for v, want := range map[uint64]int64{1: 0, 2: 20, 3: 20, 4: 40, 5: 50} {
		tx, err := e.BeginAt(v)
		if err != nil {
			t.Fatal(err)
		}
		r, ok, err := tx.Get("kv", EncodeKey(int64(0)))
		if err != nil || !ok {
			t.Fatalf("snapshot %d: Get = %v, %v, %v", v, r, ok, err)
		}
		if got := r[1].(int64); got != want {
			t.Fatalf("snapshot %d reads %d, want %d", v, got, want)
		}
	}
}

// TestInstallThenSerialApplyInterleave proves an exclusive-lock commit
// picks up exactly where published installs left off, as the replica
// does when a local commit follows a refresh batch.
func TestInstallThenSerialApplyInterleave(t *testing.T) {
	e := newKVEngine(t, 4) // version 1
	for v := uint64(2); v <= 4; v++ {
		if err := e.InstallWriteSets([]*writeset.WriteSet{updateWS("kv", int64(v%4), int64(v))}, v); err != nil {
			t.Fatal(err)
		}
	}
	e.PublishVersion(4)
	if err := e.ApplyWriteSet(updateWS("kv", 1, 50), 5); err != nil {
		t.Fatal(err)
	}
	tx := e.Begin()
	r, _, _ := tx.Get("kv", EncodeKey(int64(1)))
	if r[1].(int64) != 50 {
		t.Fatalf("serial apply after installs: row = %v", r)
	}
}

// TestConcurrentInstallPublishReaders is the storage-level model of
// the replica's refresh applier: K worker goroutines install disjoint keys (so
// no two concurrent installs conflict, and each key's versions are
// installed in order by its owner), a publisher advances the watermark
// over the contiguous completed prefix, and reader goroutines assert
// every snapshot shows, for each key, exactly the newest write at or
// below the snapshot. Run under -race this doubles as the
// happens-before proof for the atomic chain-head handoff.
func TestConcurrentInstallPublishReaders(t *testing.T) {
	const keys = 8
	const last = uint64(512)  // versions 2..last, version v writes key v%keys
	e := newKVEngine(t, keys) // version 1 seeds all keys with 0

	installed := make([]atomic.Bool, last+1)
	var wg sync.WaitGroup
	for g := int64(0); g < keys; g++ {
		wg.Add(1)
		go func(g int64) {
			defer wg.Done()
			for v := uint64(2); v <= last; v++ {
				if int64(v%keys) != g {
					continue
				}
				if err := e.InstallWriteSets([]*writeset.WriteSet{updateWS("kv", g, int64(v))}, v); err != nil {
					t.Error(err)
					return
				}
				installed[v].Store(true)
			}
		}(g)
	}

	done := make(chan struct{})
	go func() { // publisher: chase the contiguous installed prefix
		defer close(done)
		next := uint64(2)
		for next <= last {
			if installed[next].Load() {
				e.PublishVersion(next)
				next++
			}
		}
	}()

	stop := make(chan struct{})
	var rwg sync.WaitGroup
	for r := 0; r < 3; r++ {
		rwg.Add(1)
		go func() {
			defer rwg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				tx := e.Begin()
				s := tx.Snapshot()
				kvs, err := tx.ScanAll("kv")
				tx.Abort()
				if err != nil {
					t.Error(err)
					return
				}
				for _, kv := range kvs {
					k := kv.Row[0].(int64)
					got := kv.Row[1].(int64)
					// Largest v in [2, s] with v%keys == k, or 0 if none.
					var want int64
					for v := s; v >= 2; v-- {
						if int64(v%keys) == k {
							want = int64(v)
							break
						}
					}
					if got != want {
						t.Errorf("snapshot %d key %d = %d, want %d", s, k, got, want)
						return
					}
				}
			}
		}()
	}

	wg.Wait()
	<-done
	close(stop)
	rwg.Wait()
	if e.Version() != last {
		t.Fatalf("final Version = %d, want %d", e.Version(), last)
	}
}
