package storage

import (
	"fmt"
	"reflect"
	"testing"

	"sconrep/internal/writeset"
)

// wsOrder renders a writeset's items as "op table[id]" lines.
func wsOrder(ws *writeset.WriteSet) []string {
	out := make([]string, len(ws.Items))
	for i, it := range ws.Items {
		out[i] = fmt.Sprintf("%s %s[%q]", it.Op, it.Table, it.Key)
	}
	return out
}

// TestWriteSetFirstTouchOrder: a key keeps the place of its first write
// across insert → delete → re-insert and across update-after-insert, and
// its item carries the net op and the latest image.
func TestWriteSetFirstTouchOrder(t *testing.T) {
	e := newTestEngine(t)
	tx := e.Begin()
	if err := tx.Insert("acct", row(9, "committed", 9, true)); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx)

	k := func(id int64) string { return EncodeKey(id) }
	tx = e.Begin()
	steps := []func() error{
		func() error { return tx.Insert("acct", row(1, "a", 1, true)) },
		func() error { return tx.Insert("acct", row(2, "b", 2, true)) },
		func() error { return tx.Delete("acct", k(9)) },
		func() error { return tx.Insert("acct", row(3, "c", 3, true)) },
		func() error { return tx.Delete("acct", k(1)) }, // cancels the insert
		func() error { return tx.Update("acct", k(2), row(2, "b2", 2, true)) },
		func() error { return tx.Insert("acct", row(9, "again", 9, true)) }, // delete + re-insert: an update
		func() error { return tx.Insert("acct", row(1, "a2", 1, true)) },    // back in its first slot
	}
	for i, step := range steps {
		if err := step(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	ws := tx.WriteSet()
	want := []string{
		fmt.Sprintf("%s acct[%q]", writeset.OpInsert, k(1)),
		fmt.Sprintf("%s acct[%q]", writeset.OpInsert, k(2)),
		fmt.Sprintf("%s acct[%q]", writeset.OpUpdate, k(9)),
		fmt.Sprintf("%s acct[%q]", writeset.OpInsert, k(3)),
	}
	if got := wsOrder(ws); !reflect.DeepEqual(got, want) {
		t.Fatalf("writeset order\n got %q\nwant %q", got, want)
	}
	for i, wantRow := range [][]any{row(1, "a2", 1, true), row(2, "b2", 2, true), row(9, "again", 9, true), row(3, "c", 3, true)} {
		if !reflect.DeepEqual(ws.Items[i].Row, wantRow) {
			t.Errorf("item %d row = %v, want %v", i, ws.Items[i].Row, wantRow)
		}
	}
}

// TestCancelledInsertIsReadOnly: an insert deleted again by the same
// transaction leaves nothing to commit.
func TestCancelledInsertIsReadOnly(t *testing.T) {
	e := newTestEngine(t)
	tx := e.Begin()
	if !tx.ReadOnly() {
		t.Fatal("fresh transaction is not read-only")
	}
	if err := tx.Insert("acct", row(1, "a", 1, true)); err != nil {
		t.Fatal(err)
	}
	if tx.ReadOnly() {
		t.Fatal("transaction with an insert is read-only")
	}
	if err := tx.Delete("acct", EncodeKey(int64(1))); err != nil {
		t.Fatal(err)
	}
	if !tx.ReadOnly() {
		t.Fatal("cancelled insert left the transaction writing")
	}
	if ws := tx.WriteSet(); !ws.Empty() {
		t.Fatalf("cancelled insert exported %v", ws)
	}
	v := e.Version()
	if got, err := tx.CommitLocal(); err != nil || got != v {
		t.Fatalf("CommitLocal = %d, %v; want %d (nothing installed)", got, err, v)
	}
}

// TestTxnKeepsTheRowItIsHanded: Insert and Update take the caller's
// slice as the pending image — the writeset exports it, and the engine
// installs it at commit — on a fresh key, over a committed row, and
// over a pending write.
func TestTxnKeepsTheRowItIsHanded(t *testing.T) {
	e := newTestEngine(t)
	same := func(what string, got, want []any) {
		t.Helper()
		if len(got) == 0 || &got[0] != &want[0] {
			t.Errorf("%s: the row is a copy, not the slice handed in", what)
		}
	}
	tx := e.Begin()
	ins := row(1, "a", 1, true)
	if err := tx.Insert("acct", ins); err != nil {
		t.Fatal(err)
	}
	got, _, _ := tx.Get("acct", EncodeKey(int64(1)))
	same("pending insert", got, ins)
	upd := row(1, "a2", 1, true)
	if err := tx.Update("acct", EncodeKey(int64(1)), upd); err != nil {
		t.Fatal(err)
	}
	same("update of a pending insert", tx.WriteSet().Items[0].Row, upd)
	mustCommit(t, tx)
	got, _, _ = e.Begin().Get("acct", EncodeKey(int64(1)))
	same("installed insert", got, upd)

	tx = e.Begin()
	upd = row(1, "a3", 1, true)
	if err := tx.Update("acct", EncodeKey(int64(1)), upd); err != nil {
		t.Fatal(err)
	}
	same("update of a committed row", tx.WriteSet().Items[0].Row, upd)
}

// TestWriteSetAcrossChunks: a transaction whose writes span many pending
// chunks, on two tables, exports exactly its writes in first-touch
// order, and no chunk was regrown to hold them.
func TestWriteSetAcrossChunks(t *testing.T) {
	e := newTestEngine(t)
	other := testSchema()
	other.Table = "acct2"
	other.Indexes = nil
	if err := e.CreateTable(other); err != nil {
		t.Fatal(err)
	}
	const n = 3000 // crosses the doubling chunks and two capped ones
	tx := e.Begin()
	var want []string
	for i := int64(0); i < n; i++ {
		tbl := []string{"acct", "acct2"}[i%2]
		if err := tx.Insert(tbl, row(i, "x", float64(i), true)); err != nil {
			t.Fatal(err)
		}
		want = append(want, fmt.Sprintf("%s %s[%q]", writeset.OpInsert, tbl, EncodeKey(i)))
		// Rewrite an earlier key now and then: no new slot, no move.
		if i%7 == 0 && i > 0 {
			j := i - 1
			tj := []string{"acct", "acct2"}[j%2]
			if err := tx.Update(tj, EncodeKey(j), row(j, "y", float64(j), true)); err != nil {
				t.Fatal(err)
			}
		}
	}
	ws := tx.WriteSet()
	if got := wsOrder(ws); !reflect.DeepEqual(got, want) {
		t.Fatalf("writeset of %d items differs from the %d writes (first items %q)", len(got), len(want), got[:min(3, len(got))])
	}
	for i, c := range tx.chunks {
		wantCap := min(1<<i, maxWriteChunk)
		if cap(c) != wantCap || (i < len(tx.chunks)-1 && len(c) != cap(c)) {
			t.Fatalf("chunk %d: len %d cap %d, want cap %d and full unless last", i, len(c), cap(c), wantCap)
		}
	}
	if _, err := tx.CommitLocal(); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < n; i++ {
		tbl := []string{"acct", "acct2"}[i%2]
		got, ok, err := e.Begin().Get(tbl, EncodeKey(i))
		if err != nil || !ok || got[0] != i {
			t.Fatalf("%s[%d] after commit = %v, %v, %v", tbl, i, got, ok, err)
		}
	}
}
