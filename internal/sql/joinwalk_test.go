package sql

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"sconrep/internal/storage"
)

// nestedLoop plans s as planSelect does, then takes the join walk back
// out: the base scan drives the join again and the output goes through
// the stable top-n, the plan the statement had before joinOrder.
func nestedLoop(e *storage.Engine, s *Select, ev *env) (*selectPlan, error) {
	p, err := planSelect(e, s, ev)
	if err != nil || !p.joinWalk {
		return p, err
	}
	p.joinWalk, p.inOrder, p.tables[1].path = false, false, accessPath{}
	return p, nil
}

// TestJoinWalkMatchesNestedLoop runs statements a join walk plans
// (joinOrder) under that plan and under the nested loop it replaces,
// and demands the same rows in the same order, or the same error: on
// committed data whose runs of equal ORDER BY values point at base rows
// in the opposite order of their own keys, with NULLs in the ORDER BY
// column and the join column, and again under the transaction's own
// writes to both tables; with OFFSETs, and base filters that match no,
// some and every base row.
func TestJoinWalkMatchesNestedLoop(t *testing.T) {
	e := storage.NewEngine()
	exec := func(tx *storage.Txn, src string, params ...any) {
		t.Helper()
		if _, err := Exec(tx, e, src, params...); err != nil {
			t.Fatalf("%s %v: %v", src, params, err)
		}
	}
	tx := e.Begin()
	exec(tx, `CREATE TABLE a (id INT PRIMARY KEY, name TEXT, vip BOOL)`)
	exec(tx, `CREATE TABLE b (id INT PRIMARY KEY, aid INT, label TEXT, n INT)`)
	exec(tx, `CREATE INDEX b_label ON b (label)`)
	exec(tx, `CREATE INDEX b_n ON b (n)`)
	rng := rand.New(rand.NewSource(1))
	null := func(v any) any {
		if rng.Intn(6) == 0 {
			return nil
		}
		return v
	}
	for i := 1; i <= 12; i++ {
		exec(tx, `INSERT INTO a VALUES (?, ?, ?)`, i, fmt.Sprintf("name%02d", i), i%3 == 0)
	}
	// b's ids run against a's: b row i points at a row 13-i (or past the
	// last, or NULL), so every run of equal labels or ranks is in the
	// opposite of the nested loop's order.
	for i := 1; i <= 40; i++ {
		exec(tx, `INSERT INTO b VALUES (?, ?, ?, ?)`, i, null(int64((13-i%14+14)%14)),
			null(fmt.Sprintf("l%d", rng.Intn(4))), null(int64(rng.Intn(5))))
	}
	if _, err := tx.CommitLocal(); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		src    string
		params []any
	}{
		{`SELECT a.id, b.id, b.label FROM a JOIN b ON b.aid = a.id ORDER BY b.label LIMIT 7`, nil},
		{`SELECT a.id, b.id, b.label FROM a JOIN b ON b.aid = a.id ORDER BY b.label LIMIT 100`, nil},
		{`SELECT a.id, b.id FROM a JOIN b ON a.id = b.aid ORDER BY b.label LIMIT 5 OFFSET 3`, nil},
		{`SELECT a.id, b.id FROM a JOIN b ON b.aid = a.id ORDER BY b.label LIMIT 4 OFFSET 60`, nil},
		{`SELECT a.id, b.id, b.n FROM a JOIN b ON b.aid = a.id ORDER BY b.n LIMIT 9 OFFSET 2`, nil},
		{`SELECT a.name, b.id FROM a JOIN b ON b.aid = a.id WHERE a.name LIKE ? ORDER BY b.label LIMIT 6`, []any{"name%"}},
		{`SELECT a.name, b.id FROM a JOIN b ON b.aid = a.id WHERE a.name LIKE ? ORDER BY b.label LIMIT 6`, []any{"zzz%"}},
		{`SELECT a.name, b.id FROM a JOIN b ON b.aid = a.id WHERE a.vip ORDER BY b.n LIMIT 6 OFFSET 1`, nil},
		{`SELECT a.id, b.id FROM a JOIN b ON b.aid = a.id WHERE b.id > 10 AND NOT a.vip ORDER BY b.label LIMIT 8`, nil},
		{`SELECT a.id, b.id FROM a JOIN b ON b.aid = a.id WHERE b.label IS NULL OR a.id < ? ORDER BY b.n LIMIT 5`, []any{int64(4)}},
		{`SELECT * FROM a JOIN b ON b.aid = a.id ORDER BY b.label LIMIT 0`, nil},
	}
	run := func(tx *storage.Txn) {
		t.Helper()
		for _, c := range cases {
			stmt, err := Parse(c.src)
			if err != nil {
				t.Fatal(err)
			}
			s := stmt.(*Select)
			var got, want *Result
			var gotErr, wantErr error
			ev, _ := newEnv(c.params)
			p, err := planSelect(e, s, ev)
			if err != nil {
				t.Fatalf("%s: %v", c.src, err)
			}
			if !p.joinWalk {
				t.Fatalf("%s: no join walk", c.src)
			}
			got, gotErr = execSelect(tx, p, ev)
			ev, _ = newEnv(c.params)
			if p, err = nestedLoop(e, s, ev); err != nil {
				t.Fatal(err)
			}
			want, wantErr = execSelect(tx, p, ev)
			switch {
			case (gotErr == nil) != (wantErr == nil):
				t.Fatalf("%s %v\n\twalk error: %v\n\tnested-loop error: %v", c.src, c.params, gotErr, wantErr)
			case gotErr == nil && !reflect.DeepEqual(got.Rows, want.Rows):
				t.Fatalf("%s %v\n\twalk:        %v\n\tnested loop: %v", c.src, c.params, got.Rows, want.Rows)
			}
		}
	}
	tx = e.Begin()
	run(tx)
	tx.Abort()

	// Own writes to both tables: labels and ranks moved within and out
	// of runs and to NULL, join keys moved, rows inserted and deleted on
	// both sides, a base row deleted that walked rows point at.
	tx = e.Begin()
	defer tx.Abort()
	exec(tx, `UPDATE b SET label = 'l1' WHERE id = 5 OR id = 10 OR id = 15 OR id = 20 OR id = 25`)
	exec(tx, `UPDATE b SET label = NULL, n = 2 WHERE id BETWEEN 26 AND 29`)
	exec(tx, `UPDATE b SET aid = 13 - aid WHERE id < 8 AND aid IS NOT NULL`)
	exec(tx, `DELETE FROM b WHERE id > 36`)
	exec(tx, `INSERT INTO b VALUES (0, 12, 'l1', 1), (50, 1, 'l1', 1), (51, 20, 'l0', 0)`)
	exec(tx, `INSERT INTO a VALUES (20, 'name20', true)`)
	exec(tx, `DELETE FROM a WHERE id = 6`)
	exec(tx, `UPDATE a SET vip = NOT vip WHERE id < 5`)
	run(tx)
}
