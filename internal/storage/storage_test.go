package storage

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"sconrep/internal/writeset"
)

func testSchema() *Schema {
	return &Schema{
		Table: "acct",
		Columns: []Column{
			{Name: "id", Type: TInt},
			{Name: "owner", Type: TString},
			{Name: "balance", Type: TFloat},
			{Name: "open", Type: TBool},
		},
		Key:     []string{"id"},
		Indexes: []IndexDef{{Name: "acct_owner", Column: "owner"}},
	}
}

func newTestEngine(t *testing.T) *Engine {
	t.Helper()
	e := NewEngine()
	if err := e.CreateTable(testSchema()); err != nil {
		t.Fatal(err)
	}
	return e
}

func row(id int64, owner string, bal float64, open bool) []any {
	return []any{id, owner, bal, open}
}

func mustCommit(t *testing.T, tx *Txn) uint64 {
	t.Helper()
	v, err := tx.CommitLocal()
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestCreateTableValidation(t *testing.T) {
	e := NewEngine()
	cases := []*Schema{
		{Table: "", Columns: []Column{{Name: "a", Type: TInt}}, Key: []string{"a"}},
		{Table: "t", Key: []string{"a"}},
		{Table: "t", Columns: []Column{{Name: "a", Type: TInt}}},
		{Table: "t", Columns: []Column{{Name: "a", Type: TInt}}, Key: []string{"b"}},
		{Table: "t", Columns: []Column{{Name: "a", Type: TInt}, {Name: "a", Type: TInt}}, Key: []string{"a"}},
		{Table: "t", Columns: []Column{{Name: "a", Type: TInt}}, Key: []string{"a"}, Indexes: []IndexDef{{Name: "i", Column: "zz"}}},
	}
	for i, s := range cases {
		if err := e.CreateTable(s); err == nil {
			t.Errorf("case %d: CreateTable accepted invalid schema", i)
		}
	}
	if err := e.CreateTable(testSchema()); err != nil {
		t.Fatal(err)
	}
	if err := e.CreateTable(testSchema()); err == nil {
		t.Fatal("duplicate CreateTable succeeded")
	}
}

func TestInsertGetCommit(t *testing.T) {
	e := newTestEngine(t)
	tx := e.Begin()
	if err := tx.Insert("acct", row(1, "ann", 100, true)); err != nil {
		t.Fatal(err)
	}
	// Own write is visible before commit.
	key := EncodeKey(int64(1))
	r, ok, err := tx.Get("acct", key)
	if err != nil || !ok || r[1].(string) != "ann" {
		t.Fatalf("Get own write = %v, %v, %v", r, ok, err)
	}
	// Not visible to a concurrent transaction.
	tx2 := e.Begin()
	if _, ok, _ := tx2.Get("acct", key); ok {
		t.Fatal("uncommitted insert visible to concurrent txn")
	}
	v := mustCommit(t, tx)
	if v != 1 {
		t.Fatalf("commit version = %d, want 1", v)
	}
	// Still invisible to tx2 (snapshot predates commit).
	if _, ok, _ := tx2.Get("acct", key); ok {
		t.Fatal("commit visible to older snapshot")
	}
	// Visible to a new transaction.
	tx3 := e.Begin()
	if _, ok, _ := tx3.Get("acct", key); !ok {
		t.Fatal("commit invisible to new txn")
	}
}

func TestDuplicateInsert(t *testing.T) {
	e := newTestEngine(t)
	tx := e.Begin()
	if err := tx.Insert("acct", row(1, "ann", 1, true)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Insert("acct", row(1, "bob", 2, true)); !errors.Is(err, ErrDuplicateKey) {
		t.Fatalf("duplicate insert in txn: err = %v", err)
	}
	mustCommit(t, tx)
	tx2 := e.Begin()
	if err := tx2.Insert("acct", row(1, "bob", 2, true)); !errors.Is(err, ErrDuplicateKey) {
		t.Fatalf("duplicate insert of committed row: err = %v", err)
	}
}

func TestUpdateDelete(t *testing.T) {
	e := newTestEngine(t)
	tx := e.Begin()
	for i := int64(1); i <= 3; i++ {
		if err := tx.Insert("acct", row(i, "u", float64(i), true)); err != nil {
			t.Fatal(err)
		}
	}
	mustCommit(t, tx)

	key2 := EncodeKey(int64(2))
	tx = e.Begin()
	if err := tx.Update("acct", key2, row(2, "u2", 22, false)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Delete("acct", EncodeKey(int64(3))); err != nil {
		t.Fatal(err)
	}
	if err := tx.Delete("acct", EncodeKey(int64(99))); !errors.Is(err, ErrNoRow) {
		t.Fatalf("delete missing: err = %v", err)
	}
	if err := tx.Update("acct", EncodeKey(int64(99)), row(99, "x", 0, true)); !errors.Is(err, ErrNoRow) {
		t.Fatalf("update missing: err = %v", err)
	}
	mustCommit(t, tx)

	tx = e.Begin()
	r, ok, _ := tx.Get("acct", key2)
	if !ok || r[1].(string) != "u2" || r[2].(float64) != 22 {
		t.Fatalf("updated row = %v, %v", r, ok)
	}
	if _, ok, _ := tx.Get("acct", EncodeKey(int64(3))); ok {
		t.Fatal("deleted row still visible")
	}
}

func TestInsertDeleteInsertSameTxn(t *testing.T) {
	e := newTestEngine(t)
	tx := e.Begin()
	key := EncodeKey(int64(1))
	if err := tx.Insert("acct", row(1, "a", 1, true)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Delete("acct", key); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := tx.Get("acct", key); ok {
		t.Fatal("row visible after in-txn insert+delete")
	}
	if !tx.ReadOnly() {
		t.Fatal("insert+delete of a fresh row should leave the txn read-only")
	}
	if err := tx.Insert("acct", row(1, "b", 2, true)); err != nil {
		t.Fatal(err)
	}
	ws := tx.WriteSet()
	if ws.Len() != 1 || ws.Items[0].Op != writeset.OpInsert {
		t.Fatalf("writeset = %v", ws)
	}
	mustCommit(t, tx)
	tx = e.Begin()
	r, ok, _ := tx.Get("acct", key)
	if !ok || r[1].(string) != "b" {
		t.Fatalf("final row = %v, %v", r, ok)
	}
}

func TestDeleteReinsertOfCommittedRowIsUpdate(t *testing.T) {
	e := newTestEngine(t)
	tx := e.Begin()
	if err := tx.Insert("acct", row(1, "a", 1, true)); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx)

	tx = e.Begin()
	key := EncodeKey(int64(1))
	if err := tx.Delete("acct", key); err != nil {
		t.Fatal(err)
	}
	if err := tx.Insert("acct", row(1, "b", 2, true)); err != nil {
		t.Fatal(err)
	}
	ws := tx.WriteSet()
	if ws.Len() != 1 || ws.Items[0].Op != writeset.OpUpdate {
		t.Fatalf("writeset = %v, want single UPDATE", ws)
	}
}

func TestFirstCommitterWins(t *testing.T) {
	e := newTestEngine(t)
	tx := e.Begin()
	if err := tx.Insert("acct", row(1, "a", 1, true)); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx)

	key := EncodeKey(int64(1))
	t1 := e.Begin()
	t2 := e.Begin()
	if err := t1.Update("acct", key, row(1, "t1", 10, true)); err != nil {
		t.Fatal(err)
	}
	if err := t2.Update("acct", key, row(1, "t2", 20, true)); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, t1)
	if _, err := t2.CommitLocal(); !errors.Is(err, ErrConflict) {
		t.Fatalf("second committer: err = %v, want ErrConflict", err)
	}
	tx = e.Begin()
	r, _, _ := tx.Get("acct", key)
	if r[1].(string) != "t1" {
		t.Fatalf("winner = %v, want t1", r[1])
	}
}

func TestReadOnlyCommitDoesNotAdvanceVersion(t *testing.T) {
	e := newTestEngine(t)
	tx := e.Begin()
	_ = tx.Insert("acct", row(1, "a", 1, true))
	mustCommit(t, tx)
	v0 := e.Version()

	ro := e.Begin()
	if _, _, err := ro.Get("acct", EncodeKey(int64(1))); err != nil {
		t.Fatal(err)
	}
	if !ro.ReadOnly() {
		t.Fatal("ReadOnly = false for a read-only txn")
	}
	v, err := ro.CommitLocal()
	if err != nil || v != v0 {
		t.Fatalf("read-only commit = %d, %v; want %d, nil", v, err, v0)
	}
	if e.Version() != v0 {
		t.Fatal("read-only commit advanced the version counter")
	}
}

func TestScanRange(t *testing.T) {
	e := newTestEngine(t)
	tx := e.Begin()
	for i := int64(0); i < 20; i++ {
		_ = tx.Insert("acct", row(i, fmt.Sprintf("u%d", i), float64(i), true))
	}
	mustCommit(t, tx)

	tx = e.Begin()
	// Uncommitted overlay: update 5, delete 7, insert 100.
	_ = tx.Update("acct", EncodeKey(int64(5)), row(5, "changed", 55, true))
	_ = tx.Delete("acct", EncodeKey(int64(7)))
	_ = tx.Insert("acct", row(100, "new", 0, true))

	kvs, err := tx.ScanAll("acct")
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != 20 { // 20 - 1 deleted + 1 inserted
		t.Fatalf("ScanAll len = %d, want 20", len(kvs))
	}
	byID := map[int64][]any{}
	prevKey := ""
	for i, kv := range kvs {
		if i > 0 && kv.Key <= prevKey {
			t.Fatal("scan out of key order")
		}
		prevKey = kv.Key
		byID[kv.Row[0].(int64)] = kv.Row
	}
	if byID[5][1].(string) != "changed" {
		t.Fatal("scan missed own update")
	}
	if _, ok := byID[7]; ok {
		t.Fatal("scan returned own-deleted row")
	}
	if _, ok := byID[100]; !ok {
		t.Fatal("scan missed own insert")
	}

	// Range bounds.
	kvs, _ = tx.ScanRange("acct", EncodeKey(int64(3)), EncodeKey(int64(6)))
	if len(kvs) != 3 || kvs[0].Row[0].(int64) != 3 || kvs[2].Row[0].(int64) != 5 {
		t.Fatalf("range scan = %v rows", len(kvs))
	}
}

func TestScanIsolatedFromLaterCommits(t *testing.T) {
	e := newTestEngine(t)
	tx := e.Begin()
	for i := int64(0); i < 5; i++ {
		_ = tx.Insert("acct", row(i, "u", 0, true))
	}
	mustCommit(t, tx)

	reader := e.Begin()
	writer := e.Begin()
	_ = writer.Insert("acct", row(50, "w", 0, true))
	_ = writer.Delete("acct", EncodeKey(int64(0)))
	mustCommit(t, writer)

	kvs, _ := reader.ScanAll("acct")
	if len(kvs) != 5 {
		t.Fatalf("snapshot scan saw %d rows, want 5", len(kvs))
	}
	for _, kv := range kvs {
		if kv.Row[0].(int64) == 50 {
			t.Fatal("snapshot scan saw later insert")
		}
	}
}

func TestSecondaryIndex(t *testing.T) {
	e := newTestEngine(t)
	tx := e.Begin()
	_ = tx.Insert("acct", row(1, "ann", 1, true))
	_ = tx.Insert("acct", row(2, "bob", 2, true))
	_ = tx.Insert("acct", row(3, "ann", 3, true))
	mustCommit(t, tx)

	tx = e.Begin()
	kvs, err := tx.ScanIndexEq("acct", "acct_owner", "ann")
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != 2 || kvs[0].Row[0].(int64) != 1 || kvs[1].Row[0].(int64) != 3 {
		t.Fatalf("index scan = %v", kvs)
	}
	if kvs, _ := tx.ScanIndexEq("acct", "acct_owner", "zed"); len(kvs) != 0 {
		t.Fatal("index scan for absent value returned rows")
	}
	if _, err := tx.ScanIndexEq("acct", "nope", "x"); !errors.Is(err, ErrNoIndex) {
		t.Fatalf("missing index err = %v", err)
	}
}

func TestSecondaryIndexTracksUpdates(t *testing.T) {
	e := newTestEngine(t)
	tx := e.Begin()
	_ = tx.Insert("acct", row(1, "ann", 1, true))
	mustCommit(t, tx)

	tx = e.Begin()
	_ = tx.Update("acct", EncodeKey(int64(1)), row(1, "bob", 1, true))
	mustCommit(t, tx)

	tx = e.Begin()
	if kvs, _ := tx.ScanIndexEq("acct", "acct_owner", "ann"); len(kvs) != 0 {
		t.Fatalf("old value still matches after update: %v", kvs)
	}
	kvs, _ := tx.ScanIndexEq("acct", "acct_owner", "bob")
	if len(kvs) != 1 {
		t.Fatalf("new value matches %d rows, want 1", len(kvs))
	}

	// An old snapshot must still find the old value through the index.
	old, err := e.BeginAt(1)
	if err != nil {
		t.Fatal(err)
	}
	kvs, _ = old.ScanIndexEq("acct", "acct_owner", "ann")
	if len(kvs) != 1 {
		t.Fatalf("old snapshot index scan = %d rows, want 1", len(kvs))
	}
}

func TestSecondaryIndexOwnWrites(t *testing.T) {
	e := newTestEngine(t)
	tx := e.Begin()
	_ = tx.Insert("acct", row(1, "ann", 1, true))
	_ = tx.Insert("acct", row(2, "bob", 1, true))
	mustCommit(t, tx)

	tx = e.Begin()
	_ = tx.Insert("acct", row(3, "ann", 0, true))                      // new matching row
	_ = tx.Update("acct", EncodeKey(int64(1)), row(1, "zed", 1, true)) // moves away
	_ = tx.Update("acct", EncodeKey(int64(2)), row(2, "ann", 1, true)) // moves in
	kvs, _ := tx.ScanIndexEq("acct", "acct_owner", "ann")
	if len(kvs) != 2 {
		t.Fatalf("own-write index scan = %d rows, want 2", len(kvs))
	}
	for _, kv := range kvs {
		id := kv.Row[0].(int64)
		if id != 2 && id != 3 {
			t.Fatalf("unexpected row id %d", id)
		}
	}
}

func TestCreateIndexBackfill(t *testing.T) {
	e := newTestEngine(t)
	tx := e.Begin()
	_ = tx.Insert("acct", row(1, "ann", 7.5, true))
	_ = tx.Insert("acct", row(2, "bob", 7.5, false))
	mustCommit(t, tx)

	if err := e.CreateIndex("acct", IndexDef{Name: "acct_bal", Column: "balance"}); err != nil {
		t.Fatal(err)
	}
	tx = e.Begin()
	kvs, err := tx.ScanIndexEq("acct", "acct_bal", 7.5)
	if err != nil || len(kvs) != 2 {
		t.Fatalf("backfilled index scan = %v, %v", kvs, err)
	}
}

func TestApplyWriteSetOrdering(t *testing.T) {
	e := newTestEngine(t)
	ws1 := &writeset.WriteSet{Items: []writeset.Item{
		{Table: "acct", Key: EncodeKey(int64(1)), Op: writeset.OpInsert, Row: row(1, "a", 1, true)},
	}}
	ws3 := &writeset.WriteSet{Items: []writeset.Item{
		{Table: "acct", Key: EncodeKey(int64(2)), Op: writeset.OpInsert, Row: row(2, "b", 2, true)},
	}}
	if err := e.ApplyWriteSet(ws1, 1); err != nil {
		t.Fatal(err)
	}
	if err := e.ApplyWriteSet(ws3, 3); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("gap apply err = %v, want ErrBadVersion", err)
	}
	if err := e.ApplyWriteSet(ws3, 2); err != nil {
		t.Fatal(err)
	}
	if e.Version() != 2 {
		t.Fatalf("Version = %d, want 2", e.Version())
	}
}

func TestBeginAt(t *testing.T) {
	e := newTestEngine(t)
	tx := e.Begin()
	_ = tx.Insert("acct", row(1, "a", 1, true))
	mustCommit(t, tx)
	if _, err := e.BeginAt(5); err == nil {
		t.Fatal("BeginAt future version succeeded")
	}
	old, err := e.BeginAt(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := old.Get("acct", EncodeKey(int64(1))); ok {
		t.Fatal("version-0 snapshot sees version-1 insert")
	}
}

func TestVacuum(t *testing.T) {
	e := newTestEngine(t)
	key := EncodeKey(int64(1))
	tx := e.Begin()
	_ = tx.Insert("acct", row(1, "v1", 1, true))
	mustCommit(t, tx)
	for i := 2; i <= 5; i++ {
		tx = e.Begin()
		_ = tx.Update("acct", key, row(1, fmt.Sprintf("v%d", i), float64(i), true))
		mustCommit(t, tx)
	}
	// Chain now has 5 versions; keep only those needed for snapshot ≥ 5.
	removed := e.Vacuum(5)
	if removed != 4 {
		t.Fatalf("Vacuum removed %d versions, want 4", removed)
	}
	tx = e.Begin()
	r, ok, _ := tx.Get("acct", key)
	if !ok || r[1].(string) != "v5" {
		t.Fatalf("row after vacuum = %v, %v", r, ok)
	}
	// Old values are gone from the secondary index as well.
	if kvs, _ := tx.ScanIndexEq("acct", "acct_owner", "v1"); len(kvs) != 0 {
		t.Fatal("vacuumed version still reachable via index")
	}
	if kvs, _ := tx.ScanIndexEq("acct", "acct_owner", "v5"); len(kvs) != 1 {
		t.Fatal("live version lost from index")
	}
}

func TestVacuumRemovesTombstones(t *testing.T) {
	e := newTestEngine(t)
	tx := e.Begin()
	_ = tx.Insert("acct", row(1, "a", 1, true))
	mustCommit(t, tx)
	tx = e.Begin()
	_ = tx.Delete("acct", EncodeKey(int64(1)))
	mustCommit(t, tx)

	if got := e.tables["acct"].rows.Len(); got != 1 {
		t.Fatalf("%d chains before vacuum, want 1 (tombstone)", got)
	}
	e.Vacuum(2)
	if got := e.tables["acct"].rows.Len(); got != 0 {
		t.Fatalf("%d chains after vacuum, want 0", got)
	}
	if got := countVisible(t, e, "acct", 1); got != 0 {
		t.Fatalf("%d rows visible at the vacuumed snapshot 1, want 0", got)
	}
}

// countVisible counts the rows of a table visible at snapshot.
func countVisible(t *testing.T, e *Engine, table string, snapshot uint64) int {
	t.Helper()
	n := 0
	if err := e.ScanVisible(table, snapshot, func(string, uint64, []any) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	return n
}

func TestVacuumPreservesOlderSnapshotBoundary(t *testing.T) {
	e := newTestEngine(t)
	key := EncodeKey(int64(1))
	tx := e.Begin()
	_ = tx.Insert("acct", row(1, "v1", 1, true))
	mustCommit(t, tx) // version 1
	tx = e.Begin()
	_ = tx.Update("acct", key, row(1, "v2", 2, true))
	mustCommit(t, tx) // version 2
	tx = e.Begin()
	_ = tx.Update("acct", key, row(1, "v3", 3, true))
	mustCommit(t, tx) // version 3

	e.Vacuum(2) // snapshots at ≥2 must stay valid
	snap2, _ := e.BeginAt(2)
	r, ok, _ := snap2.Get("acct", key)
	if !ok || r[1].(string) != "v2" {
		t.Fatalf("snapshot 2 after Vacuum(2) = %v, %v; want v2", r, ok)
	}
}

func TestTxnFinishedErrors(t *testing.T) {
	e := newTestEngine(t)
	tx := e.Begin()
	tx.Abort()
	if _, _, err := tx.Get("acct", "k"); !errors.Is(err, ErrTxnFinished) {
		t.Fatalf("Get after abort err = %v", err)
	}
	if err := tx.Insert("acct", row(1, "a", 1, true)); !errors.Is(err, ErrTxnFinished) {
		t.Fatalf("Insert after abort err = %v", err)
	}
	if _, err := tx.CommitLocal(); !errors.Is(err, ErrTxnFinished) {
		t.Fatalf("Commit after abort err = %v", err)
	}
}

func TestRowTypeValidation(t *testing.T) {
	e := newTestEngine(t)
	tx := e.Begin()
	if err := tx.Insert("acct", []any{int64(1), "a", 1.0}); err == nil {
		t.Fatal("short row accepted")
	}
	if err := tx.Insert("acct", []any{"one", "a", 1.0, true}); err == nil {
		t.Fatal("mistyped key accepted")
	}
	if err := tx.Insert("acct", []any{nil, "a", 1.0, true}); err == nil {
		t.Fatal("NULL primary key accepted")
	}
	if err := tx.Insert("acct", []any{int64(1), nil, 1.0, true}); err != nil {
		t.Fatalf("NULL non-key column rejected: %v", err)
	}
}

// TestQuickSnapshotIsolation: concurrent snapshots never observe
// partial transactions — each reader sees, for every key, the value
// written by the last transaction that committed at or before its
// snapshot version.
func TestQuickSnapshotIsolation(t *testing.T) {
	f := func(updates []uint8, probeVersion uint8) bool {
		e := NewEngine()
		_ = e.CreateTable(&Schema{
			Table:   "kv",
			Columns: []Column{{Name: "k", Type: TInt}, {Name: "v", Type: TInt}},
			Key:     []string{"k"},
		})
		// Oracle: value of each key after each version.
		history := []map[int64]int64{{}} // history[v] = state at version v
		state := map[int64]int64{}
		for i, u := range updates {
			k := int64(u % 8)
			tx := e.Begin()
			key := EncodeKey(k)
			if _, ok, _ := tx.Get("kv", key); ok {
				_ = tx.Update("kv", key, []any{k, int64(i)})
			} else {
				_ = tx.Insert("kv", []any{k, int64(i)})
			}
			if _, err := tx.CommitLocal(); err != nil {
				return false
			}
			state[k] = int64(i)
			snap := make(map[int64]int64, len(state))
			for kk, vv := range state {
				snap[kk] = vv
			}
			history = append(history, snap)
		}
		pv := uint64(probeVersion) % uint64(len(history))
		tx, err := e.BeginAt(pv)
		if err != nil {
			return false
		}
		kvs, err := tx.ScanAll("kv")
		if err != nil {
			return false
		}
		want := history[pv]
		if len(kvs) != len(want) {
			return false
		}
		for _, kv := range kvs {
			if want[kv.Row[0].(int64)] != kv.Row[1].(int64) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(21))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestQuickWriteSetRoundTrip: applying a transaction's writeset to a
// second engine reproduces exactly the state change, for random
// operation sequences. This is the property refresh transactions rely
// on.
func TestQuickWriteSetRoundTrip(t *testing.T) {
	schema := &Schema{
		Table:   "kv",
		Columns: []Column{{Name: "k", Type: TInt}, {Name: "v", Type: TString}},
		Key:     []string{"k"},
	}
	f := func(seed int64, nOps uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := NewEngine(), NewEngine()
		_ = a.CreateTable(schema)
		_ = b.CreateTable(schema)

		// Seed both engines identically via writeset replication.
		seedTx := a.Begin()
		for k := int64(0); k < 8; k++ {
			_ = seedTx.Insert("kv", []any{k, "seed"})
		}
		seedWS := seedTx.WriteSet()
		if _, err := seedTx.CommitLocal(); err != nil {
			return false
		}
		if err := b.ApplyWriteSet(seedWS, 1); err != nil {
			return false
		}

		// Random mutation transaction on A.
		tx := a.Begin()
		for i := 0; i < int(nOps%16); i++ {
			k := rng.Int63n(12)
			key := EncodeKey(k)
			switch rng.Intn(3) {
			case 0:
				_ = tx.Insert("kv", []any{k, fmt.Sprintf("i%d", i)})
			case 1:
				_ = tx.Update("kv", key, []any{k, fmt.Sprintf("u%d", i)})
			case 2:
				_ = tx.Delete("kv", key)
			}
		}
		ws := tx.WriteSet()
		if _, err := tx.CommitLocal(); err != nil {
			return false
		}
		if !ws.Empty() {
			if err := b.ApplyWriteSet(ws, 2); err != nil {
				return false
			}
		}

		// Both engines must now agree exactly.
		ta, tb := a.Begin(), b.Begin()
		ka, _ := ta.ScanAll("kv")
		kb, _ := tb.ScanAll("kv")
		if len(ka) != len(kb) {
			return false
		}
		for i := range ka {
			if ka[i].Key != kb[i].Key || ka[i].Row[1] != kb[i].Row[1] {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(22))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestQuickKeyEncodingOrder: EncodeKey preserves the value order for
// every supported type.
func TestQuickKeyEncodingOrder(t *testing.T) {
	fInt := func(a, b int64) bool {
		ka, kb := EncodeKey(a), EncodeKey(b)
		switch {
		case a < b:
			return ka < kb
		case a > b:
			return ka > kb
		default:
			return ka == kb
		}
	}
	fStr := func(a, b string) bool {
		ka, kb := EncodeKey(a), EncodeKey(b)
		switch {
		case a < b:
			return ka < kb
		case a > b:
			return ka > kb
		default:
			return ka == kb
		}
	}
	fFloat := func(ai, bi int32) bool {
		a, b := float64(ai)/3, float64(bi)/7
		ka, kb := EncodeKey(a), EncodeKey(b)
		switch {
		case a < b:
			return ka < kb
		case a > b:
			return ka > kb
		default:
			return ka == kb
		}
	}
	cfg := &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(23))}
	for i, f := range []any{fInt, fStr, fFloat} {
		if err := quick.Check(f, cfg); err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
	}
	// NUL, which the encoding escapes, against its neighbours.
	for _, p := range [][2]string{{"a", "a\x00"}, {"a\x00", "a\x01"}, {"a\x00\x00", "a\x00b"}, {"", "\x00"}, {"a\x00b", "a\x00b"}} {
		if !fStr(p[0], p[1]) || !fStr(p[1], p[0]) {
			t.Fatalf("%q vs %q: encodings out of order", p[0], p[1])
		}
	}
}

func TestQuickCompositeKeyOrder(t *testing.T) {
	f := func(a1, b1 int64, a2, b2 string) bool {
		ka, kb := EncodeKey(a1, a2), EncodeKey(b1, b2)
		var want int
		switch {
		case a1 < b1:
			want = -1
		case a1 > b1:
			want = 1
		case a2 < b2:
			want = -1
		case a2 > b2:
			want = 1
		}
		switch want {
		case -1:
			return ka < kb
		case 1:
			return ka > kb
		default:
			return ka == kb
		}
	}
	cfg := &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(24))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestCompareValues(t *testing.T) {
	cases := []struct {
		a, b any
		want int
	}{
		{int64(1), int64(2), -1},
		{int64(2), int64(2), 0},
		{int64(3), int64(2), 1},
		{int64(1), float64(1.5), -1},
		{float64(2.5), int64(2), 1},
		{"a", "b", -1},
		{false, true, -1},
		{nil, int64(0), -1},
		{nil, nil, 0},
		{int64(5), nil, 1},
	}
	for _, c := range cases {
		if got := CompareValues(c.a, c.b); got != c.want {
			t.Errorf("CompareValues(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func BenchmarkEngineInsert(b *testing.B) {
	e := NewEngine()
	_ = e.CreateTable(testSchema())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := e.Begin()
		_ = tx.Insert("acct", row(int64(i), "bench", 1.0, true))
		if _, err := tx.CommitLocal(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEnginePointRead(b *testing.B) {
	e := NewEngine()
	_ = e.CreateTable(testSchema())
	tx := e.Begin()
	const n = 10000
	for i := 0; i < n; i++ {
		_ = tx.Insert("acct", row(int64(i), "bench", 1.0, true))
	}
	if _, err := tx.CommitLocal(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := e.Begin()
		if _, ok, _ := r.Get("acct", EncodeKey(int64(i%n))); !ok {
			b.Fatal("miss")
		}
		r.Abort()
	}
}
