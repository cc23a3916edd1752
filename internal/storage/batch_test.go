package storage

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"sconrep/internal/writeset"
)

func insertWS(id int64, owner string, bal float64) *writeset.WriteSet {
	return &writeset.WriteSet{Items: []writeset.Item{
		{Table: "acct", Key: EncodeKey(id), Op: writeset.OpInsert, Row: row(id, owner, bal, true)},
	}}
}

func TestApplyWriteSetBatch(t *testing.T) {
	e := newTestEngine(t)
	batch := []*writeset.WriteSet{
		insertWS(1, "ann", 1),
		insertWS(2, "bob", 2),
		insertWS(3, "ann", 3),
	}
	if err := e.ApplyWriteSetBatch(batch, 1); err != nil {
		t.Fatal(err)
	}
	if e.Version() != 3 {
		t.Fatalf("Version = %d, want 3 (tail of batch)", e.Version())
	}
	// Every row is visible at the tail version, each stamped with its
	// own position in the batch.
	tx := e.Begin()
	for id := int64(1); id <= 3; id++ {
		r, ok, err := tx.Get("acct", EncodeKey(id))
		if err != nil || !ok {
			t.Fatalf("Get(%d) = %v, %v, %v", id, r, ok, err)
		}
	}
	// Intermediate versions are still addressable after the fact: a
	// snapshot at version 2 must see rows 1,2 but not 3.
	mid, err := e.BeginAt(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := mid.Get("acct", EncodeKey(int64(2))); !ok {
		t.Fatal("version-2 snapshot missing version-2 row")
	}
	if _, ok, _ := mid.Get("acct", EncodeKey(int64(3))); ok {
		t.Fatal("version-2 snapshot sees version-3 row")
	}
}

func TestApplyWriteSetBatchVersionCheck(t *testing.T) {
	e := newTestEngine(t)
	if err := e.ApplyWriteSetBatch(nil, 1); err != nil {
		t.Fatalf("empty batch err = %v", err)
	}
	batch := []*writeset.WriteSet{insertWS(1, "a", 1)}
	if err := e.ApplyWriteSetBatch(batch, 2); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("gap batch err = %v, want ErrBadVersion", err)
	}
	if err := e.ApplyWriteSetBatch(batch, 0); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("zero-start batch err = %v, want ErrBadVersion", err)
	}
	if err := e.ApplyWriteSetBatch(batch, 1); err != nil {
		t.Fatal(err)
	}
	if e.Version() != 1 {
		t.Fatalf("Version = %d, want 1", e.Version())
	}
}

func TestApplyWriteSetBatchMidBatchErrorKeepsPrefix(t *testing.T) {
	e := newTestEngine(t)
	bad := &writeset.WriteSet{Items: []writeset.Item{
		// A well-formed item first: the offending writeset must be left
		// out whole, not installed up to its bad row.
		{Table: "acct", Key: EncodeKey(int64(8)), Op: writeset.OpInsert, Row: row(8, "eve", 8, true)},
		// Wrong arity: CheckRow rejects it mid-batch.
		{Table: "acct", Key: EncodeKey(int64(9)), Op: writeset.OpInsert, Row: []any{int64(9)}},
	}}
	batch := []*writeset.WriteSet{
		insertWS(1, "ann", 1),
		insertWS(2, "bob", 2),
		bad,
		insertWS(4, "cat", 4),
	}
	err := e.ApplyWriteSetBatch(batch, 1)
	if err == nil {
		t.Fatal("mid-batch bad row accepted")
	}
	// The version counter stops at the last fully applied writeset: the
	// durable prefix [1,2]. Nothing past the failure is visible.
	if e.Version() != 2 {
		t.Fatalf("Version after mid-batch failure = %d, want 2", e.Version())
	}
	tx := e.Begin()
	if _, ok, _ := tx.Get("acct", EncodeKey(int64(2))); !ok {
		t.Fatal("prefix row 2 missing after mid-batch failure")
	}
	if _, ok, _ := tx.Get("acct", EncodeKey(int64(4))); ok {
		t.Fatal("row past the failing writeset is visible")
	}
	// Recovery is a fresh batch starting right after the prefix.
	if err := e.ApplyWriteSetBatch([]*writeset.WriteSet{insertWS(3, "cat", 3), insertWS(4, "dan", 4)}, 3); err != nil {
		t.Fatal(err)
	}
	if e.Version() != 4 {
		t.Fatalf("Version after retry = %d, want 4", e.Version())
	}
	if _, ok, _ := e.Begin().Get("acct", EncodeKey(int64(8))); ok {
		t.Fatal("the offending writeset's first item was installed")
	}
}

func TestApplyWriteSetBatchUpdatesSecondaryIndexes(t *testing.T) {
	e := newTestEngine(t)
	batch := make([]*writeset.WriteSet, 0, 4)
	for id := int64(1); id <= 4; id++ {
		owner := "ann"
		if id%2 == 0 {
			owner = "bob"
		}
		batch = append(batch, insertWS(id, owner, float64(id)))
	}
	if err := e.ApplyWriteSetBatch(batch, 1); err != nil {
		t.Fatal(err)
	}
	tx := e.Begin()
	kvs, err := tx.ScanIndexEq("acct", "acct_owner", "ann")
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != 2 || kvs[0].Row[0].(int64) != 1 || kvs[1].Row[0].(int64) != 3 {
		t.Fatalf("index scan after batch = %v", kvs)
	}
}

// randomRun builds a seeded run over a small keyspace with inserts,
// updates, deletes and re-inserts after delete, one to three items per
// writeset, so records recur inside the run and the owner index sees
// values come and go.
func randomRun(seed int64, n int) []*writeset.WriteSet {
	rng := rand.New(rand.NewSource(seed))
	live := map[int64]bool{}
	wss := make([]*writeset.WriteSet, n)
	for i := range wss {
		ws := &writeset.WriteSet{}
		seen := map[int64]bool{}
		for j := 1 + rng.Intn(3); j > 0; j-- {
			id := int64(rng.Intn(6))
			if seen[id] {
				continue // a writeset names a record at most once
			}
			seen[id] = true
			it := writeset.Item{Table: "acct", Key: EncodeKey(id)}
			switch {
			case !live[id]:
				it.Op, it.Row = writeset.OpInsert, row(id, fmt.Sprintf("o%d", rng.Intn(3)), float64(i), true)
			case rng.Intn(3) == 0:
				it.Op = writeset.OpDelete
			default:
				it.Op, it.Row = writeset.OpUpdate, row(id, fmt.Sprintf("o%d", rng.Intn(3)), float64(i), false)
			}
			live[id] = it.Op != writeset.OpDelete
			ws.Items = append(ws.Items, it)
		}
		wss[i] = ws
	}
	return wss
}

// dumpAt renders everything a snapshot at v can read: the table in key
// order and each owner's index scan.
func dumpAt(t *testing.T, e *Engine, v uint64) string {
	t.Helper()
	tx, err := e.BeginAt(v)
	if err != nil {
		t.Fatal(err)
	}
	kvs, err := tx.ScanAll("acct")
	if err != nil {
		t.Fatal(err)
	}
	out := fmt.Sprint(kvs)
	for o := 0; o < 4; o++ {
		ix, err := tx.ScanIndexEq("acct", "acct_owner", fmt.Sprintf("o%d", o))
		if err != nil {
			t.Fatal(err)
		}
		out += fmt.Sprint(ix)
	}
	return out
}

// TestApplyWriteSetBatchMatchesPerWriteset drives the three callers of
// the one install body — ApplyWriteSetBatch, one ApplyWriteSet per
// writeset, and InstallWriteSets followed by PublishVersion — over the
// same runs and requires every version of the three engines to read
// the same.
func TestApplyWriteSetBatchMatchesPerWriteset(t *testing.T) {
	fixed := func() []*writeset.WriteSet {
		var wss []*writeset.WriteSet
		for id := int64(1); id <= 8; id++ {
			wss = append(wss, insertWS(id, fmt.Sprintf("o%d", id%3), float64(id)))
		}
		// An update and a delete over earlier rows, to cover all ops.
		wss = append(wss, &writeset.WriteSet{Items: []writeset.Item{
			{Table: "acct", Key: EncodeKey(int64(1)), Op: writeset.OpUpdate, Row: row(1, "upd", 99, false)},
		}})
		wss = append(wss, &writeset.WriteSet{Items: []writeset.Item{
			{Table: "acct", Key: EncodeKey(int64(2)), Op: writeset.OpDelete},
		}})
		return wss
	}
	inputs := map[string][]*writeset.WriteSet{"fixed": fixed()}
	for seed := int64(1); seed <= 5; seed++ {
		inputs[fmt.Sprintf("seed=%d", seed)] = randomRun(seed, 40)
	}
	for name, wss := range inputs {
		t.Run(name, func(t *testing.T) {
			one, many, split := newTestEngine(t), newTestEngine(t), newTestEngine(t)
			for i, ws := range wss {
				if err := one.ApplyWriteSet(ws, uint64(i+1)); err != nil {
					t.Fatal(err)
				}
			}
			if err := many.ApplyWriteSetBatch(wss, 1); err != nil {
				t.Fatal(err)
			}
			if err := split.InstallWriteSets(wss, 1); err != nil {
				t.Fatal(err)
			}
			if split.Version() != 0 {
				t.Fatalf("install published: Version = %d", split.Version())
			}
			split.PublishVersion(uint64(len(wss)))
			for v := uint64(0); v <= uint64(len(wss)); v++ {
				want := dumpAt(t, one, v)
				if got := dumpAt(t, many, v); got != want {
					t.Fatalf("version %d: batch reads %s, per-writeset %s", v, got, want)
				}
				if got := dumpAt(t, split, v); got != want {
					t.Fatalf("version %d: install+publish reads %s, per-writeset %s", v, got, want)
				}
			}
		})
	}
}
