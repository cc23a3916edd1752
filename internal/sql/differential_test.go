package sql_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"sconrep/internal/sql"
	"sconrep/internal/storage"
	"sconrep/internal/workload/tpcw"
)

// diff is one engine and the oracle's copy of what is in it.
type diff struct {
	t  *testing.T
	e  *storage.Engine
	db refDB
}

func newDiff(t *testing.T, ddl ...string) *diff {
	t.Helper()
	d := &diff{t: t, e: storage.NewEngine(), db: refDB{}}
	for _, src := range ddl {
		tx := d.e.Begin()
		if _, err := sql.Exec(tx, d.e, src); err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		tx.Abort()
	}
	for _, name := range d.e.Tables() {
		s, _ := d.e.Schema(name)
		d.db.create(s)
	}
	return d
}

// The three writes go to the transaction and to the oracle's copy alike.
// Rows are keyed by their own primary key.

func (d *diff) insert(tx *storage.Txn, table string, row ...any) {
	d.t.Helper()
	if err := tx.Insert(table, row); err != nil {
		d.t.Fatalf("insert %s %v: %v", table, row, err)
	}
	d.db[table].put(row)
}

func (d *diff) update(tx *storage.Txn, table string, row ...any) {
	d.t.Helper()
	key, _ := d.db[table].schema.KeyOf(row)
	if err := tx.Update(table, key, row); err != nil {
		d.t.Fatalf("update %s %v: %v", table, row, err)
	}
	d.db[table].put(row)
}

func (d *diff) delete(tx *storage.Txn, table string, row []any) {
	d.t.Helper()
	key, _ := d.db[table].schema.KeyOf(row)
	if err := tx.Delete(table, key); err != nil {
		d.t.Fatalf("delete %s %v: %v", table, row, err)
	}
	d.db[table].drop(row)
}

func (d *diff) commit(tx *storage.Txn) {
	d.t.Helper()
	if _, err := tx.CommitLocal(); err != nil {
		d.t.Fatal(err)
	}
}

// compare runs one SELECT through the executor and the oracle and
// demands the same rows in the same order, or an error from both. The
// oracle evaluates every row of the cross product; the executor, now as
// before, only the rows its access path fetches, and no longer those
// past the point an ordered scan stops. So an error of the oracle's
// alone is held against the executor only when its plan reads the whole
// base table and runs to the end — which is where a conjunct applied
// early could hide an error the whole predicate would raise. An error of
// the executor's alone always fails. It returns the statement's plan.
func (d *diff) compare(tx *storage.Txn, src string, params ...any) string {
	d.t.Helper()
	stmt, err := sql.Parse(src)
	if err != nil {
		d.t.Fatalf("parse %q: %v", src, err)
	}
	want, refErr := refSelect(d.db, stmt.(*sql.Select), params)
	got, err := sql.ExecStmt(tx, d.e, stmt, params...)
	plan, _ := sql.Explain(d.e, stmt, params)
	readsAll := strings.HasPrefix(plan, "full-scan") && !strings.Contains(plan, "ordered-stop")
	switch {
	case refErr != nil && (err != nil || !readsAll):
		return plan
	case refErr != nil || err != nil:
		d.t.Fatalf("%s %v\n\tplan: %s\n\texecutor error: %v\n\toracle error:   %v", src, params, plan, err, refErr)
	}
	if len(got.Rows) != len(want) {
		d.t.Fatalf("%s %v\n\tplan: %s\n\texecutor: %d rows %v\n\toracle:   %d rows %v", src, params, plan, len(got.Rows), got.Rows, len(want), want)
	}
	for i := range want {
		if !reflect.DeepEqual(got.Rows[i], want[i]) {
			d.t.Fatalf("%s %v\n\tplan: %s\n\trow %d: executor %v, oracle %v\n\texecutor: %v\n\toracle:   %v", src, params, plan, i, got.Rows[i], want[i], got.Rows, want)
		}
	}
	return plan
}

// comparePrepared runs src through one prepared statement once per
// parameter set, in order, so each execution after the first either
// reuses the plan the one before it kept or replaces it; and demands of
// every execution what a fresh plan gives: the same rows, or an error
// alike, and the same Explain.
func (d *diff) comparePrepared(tx *storage.Txn, src string, sets ...[]any) {
	d.t.Helper()
	p, err := sql.Prepare(src)
	if err != nil {
		d.t.Fatalf("prepare %q: %v", src, err)
	}
	for _, params := range sets {
		got, err := p.Exec(tx, d.e, params...)
		want, wantErr := sql.ExecStmt(tx, d.e, p.Stmt, params...)
		gotPlan, _ := p.Explain(d.e, params...)
		wantPlan, _ := sql.Explain(d.e, p.Stmt, params)
		switch {
		case gotPlan != wantPlan:
			d.t.Fatalf("%s %v\n\tprepared plan: %s\n\tfresh plan:    %s", src, params, gotPlan, wantPlan)
		case (err == nil) != (wantErr == nil):
			d.t.Fatalf("%s %v\n\tplan: %s\n\tprepared error: %v\n\tfresh error:    %v", src, params, wantPlan, err, wantErr)
		case err == nil && !reflect.DeepEqual(got, want):
			d.t.Fatalf("%s %v\n\tplan: %s\n\tprepared: %v\n\tfresh:    %v", src, params, wantPlan, got, want)
		}
	}
}

// TestDifferentialCases runs the shapes the executor treats specially —
// and the inputs each could get wrong — against the oracle, on committed
// data and again inside a transaction whose own inserts, updates and
// deletes overlay every table it then reads.
func TestDifferentialCases(t *testing.T) {
	d := newDiff(t,
		`CREATE TABLE cust (id INT PRIMARY KEY, name TEXT, region TEXT, score FLOAT, vip BOOL)`,
		`CREATE INDEX cust_region ON cust (region)`,
		`CREATE TABLE ord (oid INT, line INT, cust INT, item TEXT, qty INT, price FLOAT, PRIMARY KEY (oid, line))`,
		`CREATE INDEX ord_cust ON ord (cust)`,
		`CREATE TABLE item (code TEXT PRIMARY KEY, title TEXT, cat INT)`,
		`CREATE TABLE tag (id INT PRIMARY KEY, cust INT, label TEXT)`,
		`CREATE INDEX tag_label ON tag (label)`,
		`CREATE TABLE empty (id INT PRIMARY KEY, v INT)`,
		`CREATE TABLE pay (id INT PRIMARY KEY, cust INT, amt FLOAT, note TEXT)`,
		`CREATE INDEX pay_cust ON pay (cust)`,
		`CREATE INDEX pay_amt ON pay (amt)`,
		`CREATE TABLE rev (id INT PRIMARY KEY, cust INT, label TEXT, rank INT, code TEXT)`,
		`CREATE INDEX rev_label ON rev (label)`,
		`CREATE INDEX rev_rank ON rev (rank)`,
	)
	tx := d.e.Begin()
	regions := []any{"north", "south", "east", nil}
	for i := int64(1); i <= 12; i++ {
		var score any = float64(i%5) * 1.5
		if i%6 == 0 {
			score = nil
		}
		d.insert(tx, "cust", i, fmt.Sprintf("name%02d", (i*7)%12), regions[i%4], score, i%3 == 0)
	}
	codes := []any{"a1", "a2", "b1", "b2", "c1", "zz", nil}
	for oid := int64(1); oid <= 10; oid++ {
		for line := int64(1); line <= 1+oid%4; line++ {
			var cust any = (oid*5+line)%15 + 1 // 13..15 match no customer
			if (oid+line)%7 == 0 {
				cust = nil // a NULL join key
			}
			d.insert(tx, "ord", oid, line, cust, codes[(oid+2*line)%7], (oid*line)%4, float64(oid%3)+0.5)
		}
	}
	for i, c := range codes[:5] {
		d.insert(tx, "item", c, fmt.Sprintf("title %d", 5-i), int64(i%2))
	}
	for i := int64(1); i <= 9; i++ {
		var cust any = i%4 + 1
		if i%4 == 3 {
			cust = nil
		}
		d.insert(tx, "tag", i, cust, fmt.Sprintf("t%d", i%3))
	}
	// pay's join columns hold what a keyed fetch must coerce or skip:
	// customer ids, ids of no customer and NULL in cust (INT); integral,
	// fractional and NULL amounts in amt (FLOAT); and 2^53 beside 2^53+1,
	// which rounds to it as a FLOAT.
	for i := int64(1); i <= 24; i++ {
		var cust, amt any = (i * 7) % 15, float64(i%8) * 0.5
		if i%9 == 0 {
			cust = nil
		}
		if i%10 == 0 {
			amt = nil
		}
		d.insert(tx, "pay", i, cust, amt, fmt.Sprintf("n%d", i%4))
	}
	d.insert(tx, "pay", int64(25), int64(1<<53), float64(1<<53), "n1")
	d.insert(tx, "pay", int64(26), int64(1<<53+1), 0.5, "n2")
	// rev is a joined table a walk of its label or rank index drives: rows
	// of one label point at customers in the opposite order of their own
	// ids, a customer has several rows under one label, and labels, ranks
	// and join keys are NULL or match no customer or item.
	for _, r := range [][]any{
		{int64(1), int64(9), "r1", int64(2), "b1"},
		{int64(2), int64(4), "r0", int64(1), "a1"},
		{int64(3), int64(7), "r1", int64(2), "a2"},
		{int64(4), int64(2), "r1", nil, "b1"},
		{int64(5), int64(11), nil, int64(1), nil},
		{int64(6), int64(9), "r0", int64(0), "c1"},
		{int64(7), int64(3), "r1", int64(2), "a1"},
		{int64(8), nil, "r0", int64(3), "zz"},
		{int64(9), int64(20), "r1", int64(1), "a2"},
		{int64(10), int64(9), "r1", int64(2), "a1"},
		{int64(11), int64(1), nil, int64(0), "b2"},
		{int64(12), int64(6), "r2", nil, "c1"},
	} {
		d.insert(tx, "rev", r...)
	}
	d.commit(tx)

	// Committed history under pay's indexes: a deleted row and moved join
	// keys, whose old entries stay in the index until vacuum.
	tx = d.e.Begin()
	d.delete(tx, "pay", []any{int64(3)})
	d.update(tx, "pay", int64(12), int64(6), 1.0, "n0")
	d.update(tx, "pay", int64(18), int64(2), 2.0, "n2")
	d.commit(tx)

	type stmt struct {
		src    string
		params []any
	}
	stmts := []stmt{
		// Ordered scans that stop at their LIMIT, and what must not be
		// mistaken for one.
		{`SELECT id, name FROM cust ORDER BY id LIMIT 3`, nil},
		{`SELECT id, name FROM cust WHERE id >= ? ORDER BY id LIMIT 4`, []any{int64(5)}},
		{`SELECT id FROM cust WHERE id >= 3 AND vip ORDER BY id LIMIT 2 OFFSET 1`, nil},
		{`SELECT id FROM cust ORDER BY id DESC LIMIT 3`, nil},
		{`SELECT id FROM cust ORDER BY id LIMIT 0`, nil},
		{`SELECT id FROM cust ORDER BY id LIMIT 5 OFFSET 100`, nil},
		{`SELECT id FROM cust LIMIT 4 OFFSET 10`, nil},
		{`SELECT oid, line FROM ord ORDER BY oid LIMIT 7`, nil},
		{`SELECT oid, line FROM ord ORDER BY oid, line LIMIT 7`, nil},
		{`SELECT oid, line FROM ord ORDER BY line LIMIT 7`, nil},
		{`SELECT oid, line FROM ord ORDER BY oid, qty LIMIT 7`, nil},
		{`SELECT line, item FROM ord WHERE oid = 3 ORDER BY line LIMIT 2`, nil},
		{`SELECT line, item FROM ord WHERE oid = 3 ORDER BY oid DESC, line LIMIT 2`, nil},
		{`SELECT id FROM cust WHERE region = 'north' ORDER BY region, id LIMIT 2`, nil},
		{`SELECT code FROM item ORDER BY code LIMIT 3`, nil},
		{`SELECT o.oid, o.line, c.name FROM ord o JOIN cust c ON o.cust = c.id ORDER BY o.oid LIMIT 5`, nil},
		{`SELECT o.oid, t.id FROM ord o JOIN tag t ON t.cust = o.cust WHERE o.oid > 2 ORDER BY o.oid, o.line LIMIT 6 OFFSET 2`, nil},
		// A LIMIT that cuts through a group of equal sort keys: ties keep
		// scan order.
		{`SELECT oid, line, qty FROM ord ORDER BY qty LIMIT 5`, nil},
		{`SELECT oid, line, qty FROM ord ORDER BY qty DESC LIMIT 5 OFFSET 3`, nil},
		{`SELECT oid, line FROM ord ORDER BY price DESC, qty LIMIT 9`, nil},
		{`SELECT id, region FROM cust ORDER BY region LIMIT 5`, nil},
		{`SELECT id, score FROM cust ORDER BY score DESC LIMIT 4`, nil},
		{`SELECT id FROM cust ORDER BY vip, region DESC`, nil},
		{`SELECT o.oid, o.line, c.region FROM ord o JOIN cust c ON o.cust = c.id ORDER BY c.region LIMIT 6`, nil},
		// Joins: primary-key probe, index probe, hash fallback, three
		// tables, NULL and dangling keys, a join on mismatched types.
		{`SELECT o.oid, o.line, c.name FROM ord o JOIN cust c ON o.cust = c.id`, nil},
		{`SELECT c.id, o.oid, o.line FROM cust c JOIN ord o ON o.cust = c.id WHERE c.vip`, nil},
		{`SELECT c.id, t.label FROM cust c JOIN tag t ON t.cust = c.id`, nil},
		{`SELECT o.oid, i.title FROM ord o JOIN item i ON o.item = i.code WHERE i.cat = 1 AND o.qty > 0`, nil},
		{`SELECT o.oid, o.line, c.name, i.title FROM ord o JOIN cust c ON o.cust = c.id JOIN item i ON i.code = o.item WHERE c.region = ? AND i.cat = ?`, []any{"north", int64(0)}},
		{`SELECT c.id, t.id, o.oid FROM cust c JOIN tag t ON t.cust = c.id JOIN ord o ON o.cust = t.cust WHERE o.qty >= 1 AND t.label <> 't0' AND c.score > 1`, nil},
		{`SELECT c.id, o.oid FROM cust c JOIN ord o ON o.price = c.id`, nil},
		{`SELECT c.id, o.oid FROM cust c JOIN ord o ON o.item = c.id`, nil},
		{`SELECT * FROM tag t JOIN cust c ON t.cust = c.id WHERE t.id < 4`, nil},
		// Conjuncts: on either table, on both, constant, OR, NULL-valued.
		{`SELECT o.oid, o.line FROM ord o JOIN cust c ON o.cust = c.id WHERE c.score > o.price AND o.qty = 1`, nil},
		{`SELECT o.oid, o.line FROM ord o JOIN cust c ON o.cust = c.id WHERE (c.vip OR o.qty = 0) AND c.region IS NOT NULL`, nil},
		{`SELECT o.oid, o.line FROM ord o JOIN cust c ON o.cust = c.id WHERE NOT c.vip AND 1 = 1 AND c.score IS NULL`, nil},
		{`SELECT o.oid FROM ord o JOIN cust c ON o.cust = c.id WHERE 1 = 0 AND c.vip`, nil},
		{`SELECT id FROM cust WHERE region = 'north' OR score > 4`, nil},
		{`SELECT id FROM cust WHERE score > 1 AND region = ?`, []any{nil}},
		// LIKE, BETWEEN.
		{`SELECT id, name FROM cust WHERE name LIKE 'name0%' ORDER BY name LIMIT 4`, nil},
		{`SELECT id FROM cust WHERE name LIKE '%1_' OR name LIKE ?`, []any{"name_5"}},
		{`SELECT id FROM cust WHERE id BETWEEN 3 AND 7 AND score BETWEEN 1 AND 4.5`, nil},
		{`SELECT oid, line FROM ord WHERE oid BETWEEN ? AND ? ORDER BY oid LIMIT 6`, []any{int64(2), int64(5)}},
		{`SELECT c.id FROM cust c JOIN ord o ON o.cust = c.id WHERE o.item LIKE 'a%' AND c.id BETWEEN 2 AND 9`, nil},
		// Aggregates: grouped, global, over no input, ordered by alias, by
		// expression, by a grouping column that is not projected.
		{`SELECT region, COUNT(*), SUM(score), AVG(score), MIN(name), MAX(id) FROM cust GROUP BY region`, nil},
		{`SELECT region, COUNT(*) AS n FROM cust GROUP BY region ORDER BY n DESC LIMIT 2`, nil},
		{`SELECT cust, SUM(qty) AS q FROM ord GROUP BY cust ORDER BY q DESC LIMIT 4`, nil},
		{`SELECT cust, SUM(qty) AS q FROM ord WHERE oid > 3 GROUP BY cust ORDER BY SUM(qty), cust LIMIT 5 OFFSET 1`, nil},
		{`SELECT c.region, i.cat, SUM(o.qty * o.price) AS total, COUNT(DISTINCT o.item) FROM ord o JOIN cust c ON o.cust = c.id JOIN item i ON i.code = o.item WHERE o.oid > 1 AND c.id < 12 GROUP BY c.region, i.cat ORDER BY total DESC`, nil},
		{`SELECT COUNT(*) FROM ord o JOIN cust c ON o.cust = c.id GROUP BY c.region ORDER BY c.region`, nil},
		{`SELECT COUNT(*), SUM(qty), MIN(item), AVG(price) FROM ord WHERE oid > 100`, nil},
		{`SELECT name, COUNT(*) FROM cust WHERE id > 100`, nil},
		{`SELECT region, COUNT(*) FROM cust WHERE id > 100 GROUP BY region`, nil},
		{`SELECT COUNT(*), MAX(v) FROM empty`, nil},
		{`SELECT SUM(qty) + COUNT(*) * 2, MAX(price) - MIN(price) FROM ord`, nil},
		{`SELECT COUNT(*) FROM cust LIMIT 0`, nil},
		// MIN / MAX of the key, and what only looks like it.
		{`SELECT MAX(id) FROM cust`, nil},
		{`SELECT MIN(id) FROM cust`, nil},
		{`SELECT MAX(oid) FROM ord`, nil},
		{`SELECT MIN(oid) AS first FROM ord`, nil},
		{`SELECT MAX(code) FROM item`, nil},
		{`SELECT MAX(id) FROM empty`, nil},
		{`SELECT MAX(line) FROM ord`, nil},
		{`SELECT MAX(id) FROM cust WHERE vip`, nil},
		{`SELECT MAX(id) + 1 FROM cust`, nil},
		{`SELECT MAX(id), MIN(id) FROM cust`, nil},
		{`SELECT MAX(id) FROM cust GROUP BY region`, nil},
		// Errors of the rows: both fail, or neither.
		{`SELECT id FROM cust WHERE name > 5`, nil},
		{`SELECT id FROM cust WHERE id > 100 AND name > 5`, nil},
		{`SELECT id FROM cust WHERE name > 5 AND id > 100`, nil},
		{`SELECT id, 10 / (id - 5) FROM cust`, nil},
		{`SELECT id FROM cust WHERE 10 / (id - 5) > 1`, nil},
		{`SELECT id FROM cust WHERE 10 / (id - 5) > 1 ORDER BY id LIMIT 3`, nil},
		{`SELECT id FROM cust WHERE id < 5 AND 10 / (id - 5) < 0`, nil},
		{`SELECT o.oid FROM ord o JOIN cust c ON o.cust = c.id WHERE c.id > 100 AND o.qty / o.qty = 1`, nil},
		{`SELECT o.oid FROM ord o JOIN cust c ON o.cust = c.id WHERE o.qty / o.qty = 1 AND c.id > 100`, nil},
		{`SELECT o.oid FROM ord o JOIN cust c ON o.cust = c.id WHERE c.vip AND c.name BETWEEN 1 AND 2`, nil},
		// The predicate fails on the joined row; a conjunct on the base row
		// alone, applied first, would have dropped it unseen.
		{`SELECT o.oid FROM ord o JOIN cust c ON o.cust = c.id WHERE c.name > 5 AND o.qty > 100`, nil},
		{`SELECT o.oid FROM ord o JOIN cust c ON o.cust = c.id WHERE 10 / (c.id - 7) > 0 AND o.qty > 100`, nil},
		{`SELECT o.oid FROM ord o JOIN cust c ON o.cust = c.id JOIN tag t ON t.cust = c.id WHERE o.qty / o.qty = 1 AND c.id > 100`, nil},
		{`SELECT id FROM cust ORDER BY 10 / (id - 5) LIMIT 2`, nil},
		{`SELECT id FROM cust WHERE name LIKE 5`, nil},
	}
	// Filtered builds — a joined table read once through the path of its
	// own conjuncts into a hash on the join column — on each join kind;
	// keyed fetches — the base read through its join column's index for
	// the keys of an equality build — on each join column type; index
	// walks in value order; and the plans that must make none of them,
	// each with the plan it runs.
	planned := []struct {
		src    string
		params []any
		plan   string
	}{
		{`SELECT o.oid, o.line, c.name FROM ord o JOIN cust c ON o.cust = c.id WHERE c.region = 'north'`, nil,
			"full-scan on ord o keyed-fetch(ord_cust) -> hash-join cust c via index-eq(cust_region) on o.cust = c.id where (c.region = north)"},
		{`SELECT o.oid, c.id, c.score FROM ord o JOIN cust c ON o.cust = c.id WHERE c.region = ? AND o.qty > 0 ORDER BY c.score DESC LIMIT 4`, []any{"north"},
			"full-scan on ord o keyed-fetch(ord_cust) where (o.qty > 0) -> hash-join cust c via index-eq(cust_region) on o.cust = c.id where (c.region = ?) -> top-n(4)"},
		{`SELECT c.region, COUNT(*), SUM(o.qty) FROM ord o JOIN cust c ON o.cust = c.id WHERE c.id >= 3 AND c.id < 10 GROUP BY c.region`, nil,
			"full-scan on ord o -> hash-join cust c via pk-range on o.cust = c.id where (c.id >= 3) and (c.id < 10) -> group"},
		{`SELECT o.oid, c.name FROM ord o JOIN cust c ON o.cust = c.id WHERE c.id = 3`, nil,
			"full-scan on ord o keyed-fetch(ord_cust) -> hash-join cust c via pk-point on o.cust = c.id where (c.id = 3)"},
		{`SELECT c.id, o.oid, o.line FROM cust c JOIN ord o ON o.cust = c.id WHERE o.oid >= 4 AND o.oid < 9`, nil,
			"full-scan on cust c -> hash-join ord o via pk-range on c.id = o.cust where (o.oid >= 4) and (o.oid < 9)"},
		{`SELECT c.id, o.line FROM cust c JOIN ord o ON o.cust = c.id WHERE o.oid = 5 AND o.line = 1`, nil,
			"full-scan on cust c -> hash-join ord o via pk-point on c.id = o.cust where (o.oid = 5) and (o.line = 1)"},
		{`SELECT c.id, o.oid FROM cust c JOIN ord o ON o.price = c.id WHERE o.oid > 2`, nil,
			"full-scan on cust c -> hash-join ord o via pk-range on c.id = o.price where (o.oid > 2)"},
		{`SELECT c.id, t.id FROM cust c JOIN tag t ON t.cust = c.id WHERE t.label = 't1'`, nil,
			"full-scan on cust c -> hash-join tag t via index-eq(tag_label) on c.id = t.cust where (t.label = t1)"},
		{`SELECT c.id, t.label FROM cust c JOIN tag t ON t.cust = c.id WHERE t.id BETWEEN 2 AND 7 AND c.vip`, nil,
			"full-scan on cust c where c.vip -> hash-join tag t via pk-range on c.id = t.cust where t.id BETWEEN 2 AND 7"},
		{`SELECT o.oid, c.name, i.title FROM ord o JOIN cust c ON o.cust = c.id JOIN item i ON i.code = o.item WHERE c.region = 'south' AND i.code >= 'b'`, nil,
			"full-scan on ord o keyed-fetch(ord_cust) -> hash-join cust c via index-eq(cust_region) on o.cust = c.id where (c.region = south) -> hash-join item i via pk-range on o.item = i.code where (i.code >= b)"},
		// Keyed fetches: FLOAT base column and INT keys, INT base column and
		// FLOAT keys (fractional ones match nothing), a pk-range base that
		// cuts fetched rows, output in the scan's order and in a top-n with
		// ties, a group, a third table, and a FLOAT key of 2^53, which
		// 2^53+1 probes to as well.
		{`SELECT p.id, p.amt, c.name FROM pay p JOIN cust c ON p.amt = c.id WHERE c.region = 'east'`, nil,
			"full-scan on pay p keyed-fetch(pay_amt) -> hash-join cust c via index-eq(cust_region) on p.amt = c.id where (c.region = east)"},
		{`SELECT p.id, c.id, c.score FROM pay p JOIN cust c ON p.cust = c.score WHERE c.region = ?`, []any{"north"},
			"full-scan on pay p keyed-fetch(pay_cust) -> hash-join cust c via index-eq(cust_region) on p.cust = c.score where (c.region = ?)"},
		{`SELECT p.id, c.id, c.score FROM pay p JOIN cust c ON p.cust = c.score WHERE c.region = ?`, []any{"east"},
			"full-scan on pay p keyed-fetch(pay_cust) -> hash-join cust c via index-eq(cust_region) on p.cust = c.score where (c.region = ?)"},
		{`SELECT p.id, c.name FROM pay p JOIN cust c ON p.cust = c.id WHERE p.id >= 5 AND p.id < 20 AND c.region = 'north'`, nil,
			"pk-range on pay p keyed-fetch(pay_cust) where (p.id >= 5) and (p.id < 20) -> hash-join cust c via index-eq(cust_region) on p.cust = c.id where (c.region = north)"},
		{`SELECT p.id, p.note, c.id FROM pay p JOIN cust c ON p.cust = c.id WHERE c.region = 'east' ORDER BY p.id`, nil,
			"full-scan on pay p keyed-fetch(pay_cust) -> hash-join cust c via index-eq(cust_region) on p.cust = c.id where (c.region = east) -> ordered"},
		{`SELECT p.id, p.note FROM pay p JOIN cust c ON p.cust = c.id WHERE c.region = 'north' ORDER BY p.note DESC LIMIT 2`, nil,
			"full-scan on pay p keyed-fetch(pay_cust) -> hash-join cust c via index-eq(cust_region) on p.cust = c.id where (c.region = north) -> top-n(2)"},
		{`SELECT p.note, COUNT(*), SUM(p.amt) FROM pay p JOIN cust c ON p.cust = c.id WHERE c.region = 'east' GROUP BY p.note`, nil,
			"full-scan on pay p keyed-fetch(pay_cust) -> hash-join cust c via index-eq(cust_region) on p.cust = c.id where (c.region = east) -> group"},
		{`SELECT p.id, c.name, t.label FROM pay p JOIN cust c ON p.cust = c.id JOIN tag t ON t.cust = c.id WHERE c.region = 'east' AND t.label <> 't0'`, nil,
			"full-scan on pay p keyed-fetch(pay_cust) -> hash-join cust c via index-eq(cust_region) on p.cust = c.id where (c.region = east) -> hash-join tag t on c.id = t.cust where (t.label <> t0)"},
		{`SELECT a.id, a.cust, b.amt FROM pay a JOIN pay b ON a.cust = b.amt WHERE b.id = ?`, []any{int64(6)},
			"full-scan on pay a keyed-fetch(pay_cust) -> hash-join pay b via pk-point on a.cust = b.amt where (b.id = ?)"},
		{`SELECT a.id, a.cust, b.amt FROM pay a JOIN pay b ON a.cust = b.amt WHERE b.id = ?`, []any{int64(25)},
			"full-scan on pay a keyed-fetch(pay_cust) -> hash-join pay b via pk-point on a.cust = b.amt where (b.id = ?)"},
		// No keyed fetch: a pk-range build, an index-eq base, no index on the
		// base's join column, an ordered stop, an edge read, a predicate that
		// may fail.
		{`SELECT p.id, c.name FROM pay p JOIN cust c ON p.cust = c.id WHERE c.id > 6`, nil,
			"full-scan on pay p -> hash-join cust c via pk-range on p.cust = c.id where (c.id > 6)"},
		{`SELECT p.id, c.name FROM pay p JOIN cust c ON p.cust = c.id WHERE p.amt = 1 AND c.region = 'east'`, nil,
			"index-eq on pay p where (p.amt = 1) -> hash-join cust c via index-eq(cust_region) on p.cust = c.id where (c.region = east)"},
		{`SELECT p.id, t.id FROM pay p JOIN tag t ON t.id = p.id WHERE t.label = 't1'`, nil,
			"full-scan on pay p -> hash-join tag t via index-eq(tag_label) on p.id = t.id where (t.label = t1)"},
		{`SELECT p.id, c.name FROM pay p JOIN cust c ON p.cust = c.id WHERE c.region = 'north' ORDER BY p.id LIMIT 3`, nil,
			"full-scan on pay p -> pk-probe cust c on p.cust = c.id where (c.region = north) -> ordered-stop(3)"},
		{`SELECT MAX(id) FROM pay`, nil, "edge(max) on pay -> group"},
		{`SELECT p.id FROM pay p JOIN cust c ON p.cust = c.id WHERE c.region = 'north' AND p.amt / p.amt = 1`, nil,
			"full-scan on pay p -> pk-probe cust c on p.cust = c.id where (c.region = north) and ((p.amt / p.amt) = 1)"},
		// No build: part of the predicate may fail, the base is one row, the
		// scan stops at its LIMIT.
		{`SELECT o.oid FROM ord o JOIN cust c ON o.cust = c.id WHERE c.region = 'north' AND o.qty / o.qty = 1`, nil,
			"full-scan on ord o -> pk-probe cust c on o.cust = c.id where (c.region = north) and ((o.qty / o.qty) = 1)"},
		{`SELECT c.name, o.oid FROM cust c JOIN ord o ON o.cust = c.id WHERE c.id = 3 AND o.oid > 2`, nil,
			"pk-point on cust c where (c.id = 3) -> index-probe ord o on c.id = o.cust where (o.oid > 2)"},
		{`SELECT o.oid, o.line, c.name FROM ord o JOIN cust c ON o.cust = c.id WHERE c.region = 'north' ORDER BY o.oid LIMIT 3`, nil,
			"full-scan on ord o -> pk-probe cust c on o.cust = c.id where (c.region = north) -> ordered-stop(3)"},
		// Index walks in value order: ties on the column, NULLs first, an
		// OFFSET, the column followed by primary-key columns, a walked base
		// with a pk-probe join.
		{`SELECT id, name, region FROM cust WHERE vip OR id > 6 ORDER BY region LIMIT 5`, nil,
			"index-order(cust_region) on cust where (vip OR (id > 6)) -> ordered-stop(5)"},
		{`SELECT oid, line, cust FROM ord ORDER BY cust LIMIT 4`, nil,
			"index-order(ord_cust) on ord -> ordered-stop(4)"},
		{`SELECT id, label FROM tag ORDER BY label LIMIT 4`, nil,
			"index-order(tag_label) on tag -> ordered-stop(4)"},
		{`SELECT id, cust FROM pay WHERE note <> 'n3' ORDER BY cust LIMIT 12`, nil,
			"index-order(pay_cust) on pay where (note <> n3) -> ordered-stop(12)"},
		{`SELECT id, region FROM cust WHERE score IS NOT NULL ORDER BY region LIMIT 3 OFFSET 2`, nil,
			"index-order(cust_region) on cust where score IS NOT NULL -> ordered-stop(5)"},
		{`SELECT oid, line, cust FROM ord ORDER BY cust, oid LIMIT 7`, nil,
			"index-order(ord_cust) on ord -> ordered-stop(7)"},
		{`SELECT oid, line, cust, qty FROM ord WHERE qty > ? ORDER BY cust, oid, line LIMIT 6 OFFSET 1`, []any{int64(0)},
			"index-order(ord_cust) on ord where (qty > ?) -> ordered-stop(7)"},
		{`SELECT o.oid, o.line, c.name FROM ord o JOIN cust c ON o.cust = c.id WHERE c.region <> 'east' ORDER BY o.cust LIMIT 6`, nil,
			"index-order(ord_cust) on ord o -> pk-probe cust c on o.cust = c.id where (c.region <> east) -> ordered-stop(6)"},
		// No walk: DESC, a FLOAT column, a conjunct that may fail, no LIMIT,
		// aggregated, a base with a pk or index path, the column followed by
		// anything but a primary-key prefix.
		{`SELECT id, region FROM cust ORDER BY region DESC LIMIT 3`, nil,
			"full-scan on cust -> top-n(3)"},
		{`SELECT id, amt FROM pay ORDER BY amt LIMIT 4`, nil,
			"full-scan on pay -> top-n(4)"},
		{`SELECT id, region FROM cust WHERE 10 / (id - 5) > 1 ORDER BY region LIMIT 3`, nil,
			"full-scan on cust where ((10 / (id - 5)) > 1) -> top-n(3)"},
		{`SELECT id, region FROM cust ORDER BY region`, nil,
			"full-scan on cust -> sort"},
		{`SELECT region, COUNT(*) FROM cust GROUP BY region ORDER BY region LIMIT 2`, nil,
			"full-scan on cust -> group -> top-n(2)"},
		{`SELECT id, region FROM cust WHERE id > 3 ORDER BY region LIMIT 3`, nil,
			"pk-range on cust where (id > 3) -> top-n(3)"},
		{`SELECT id, cust FROM pay WHERE amt = 1 ORDER BY cust LIMIT 2`, nil,
			"index-eq on pay where (amt = 1) -> top-n(2)"},
		{`SELECT oid, line, cust FROM ord ORDER BY cust, line LIMIT 3`, nil,
			"full-scan on ord -> top-n(3)"},
		{`SELECT oid, line, cust FROM ord ORDER BY cust, qty LIMIT 3`, nil,
			"full-scan on ord -> top-n(3)"},
		// Join walks — the joined table's index walk drives the join and
		// probes the base by primary key: ties on the column across base
		// rows, NULLs first, an OFFSET, a base filter that matches all,
		// some and none of the rows, a conjunct on each table, an INT
		// column, a TEXT join key, LIMIT 0.
		{`SELECT c.id, t.label FROM cust c JOIN tag t ON t.cust = c.id WHERE c.name LIKE 'name%' ORDER BY t.label LIMIT 3`, nil,
			"index-order(tag_label) on tag t -> pk-probe cust c on t.cust = c.id where (c.name LIKE name%) -> ordered-stop(3)"},
		{`SELECT c.id, r.id, r.label FROM cust c JOIN rev r ON r.cust = c.id ORDER BY r.label LIMIT 6`, nil,
			"index-order(rev_label) on rev r -> pk-probe cust c on r.cust = c.id -> ordered-stop(6)"},
		{`SELECT c.id, r.id, r.label FROM cust c JOIN rev r ON r.cust = c.id WHERE c.name LIKE 'name%' ORDER BY r.label LIMIT 8 OFFSET 2`, nil,
			"index-order(rev_label) on rev r -> pk-probe cust c on r.cust = c.id where (c.name LIKE name%) -> ordered-stop(10)"},
		{`SELECT c.id, r.id FROM cust c JOIN rev r ON r.cust = c.id WHERE c.vip ORDER BY r.label LIMIT 3`, nil,
			"index-order(rev_label) on rev r -> pk-probe cust c on r.cust = c.id where c.vip -> ordered-stop(3)"},
		{`SELECT c.id, r.id FROM cust c JOIN rev r ON r.cust = c.id WHERE c.name LIKE ? ORDER BY r.label LIMIT 3`, []any{"zzz%"},
			"index-order(rev_label) on rev r -> pk-probe cust c on r.cust = c.id where (c.name LIKE ?) -> ordered-stop(3)"},
		{`SELECT r.id, c.id, r.rank FROM cust c JOIN rev r ON c.id = r.cust WHERE r.id <> 3 AND c.region IS NOT NULL ORDER BY r.rank LIMIT 5 OFFSET 1`, nil,
			"index-order(rev_rank) on rev r -> pk-probe cust c on r.cust = c.id where (r.id <> 3) and c.region IS NOT NULL -> ordered-stop(6)"},
		{`SELECT i.code, r.id, r.rank FROM item i JOIN rev r ON r.code = i.code WHERE i.cat = ? ORDER BY r.rank LIMIT 4`, []any{int64(1)},
			"index-order(rev_rank) on rev r -> pk-probe item i on r.code = i.code where (i.cat = ?) -> ordered-stop(4)"},
		{`SELECT c.id, r.id FROM cust c JOIN rev r ON r.cust = c.id ORDER BY r.label LIMIT 0`, nil,
			"index-order(rev_label) on rev r -> pk-probe cust c on r.cust = c.id -> ordered-stop(0)"},
		// No join walk: DESC, a second ORDER BY term, no LIMIT, a conjunct
		// that may fail, a base with a pk path, ON off the base's key, join
		// columns of two types, a FLOAT column, three tables.
		{`SELECT c.id, r.id FROM cust c JOIN rev r ON r.cust = c.id ORDER BY r.label DESC LIMIT 3`, nil,
			"full-scan on cust c -> hash-join rev r on c.id = r.cust -> top-n(3)"},
		{`SELECT c.id, r.id FROM cust c JOIN rev r ON r.cust = c.id ORDER BY r.label, r.id LIMIT 3`, nil,
			"full-scan on cust c -> hash-join rev r on c.id = r.cust -> top-n(3)"},
		{`SELECT c.id, r.id FROM cust c JOIN rev r ON r.cust = c.id ORDER BY r.label`, nil,
			"full-scan on cust c -> hash-join rev r on c.id = r.cust -> sort"},
		{`SELECT c.id, r.id FROM cust c JOIN rev r ON r.cust = c.id WHERE 10 / (c.id - 5) > 1 ORDER BY r.label LIMIT 3`, nil,
			"full-scan on cust c -> hash-join rev r on c.id = r.cust where ((10 / (c.id - 5)) > 1) -> top-n(3)"},
		{`SELECT c.id, r.id FROM cust c JOIN rev r ON r.cust = c.id WHERE c.id > 3 ORDER BY r.label LIMIT 3`, nil,
			"pk-range on cust c where (c.id > 3) -> hash-join rev r on c.id = r.cust -> top-n(3)"},
		{`SELECT r.id, c.id FROM rev r JOIN cust c ON r.cust = c.id ORDER BY c.region LIMIT 3`, nil,
			"full-scan on rev r -> pk-probe cust c on r.cust = c.id -> top-n(3)"},
		{`SELECT i.code, r.id FROM item i JOIN rev r ON r.cust = i.code ORDER BY r.label LIMIT 3`, nil,
			"full-scan on item i -> hash-join rev r on i.code = r.cust -> top-n(3)"},
		{`SELECT c.id, p.id FROM cust c JOIN pay p ON p.cust = c.id ORDER BY p.amt LIMIT 3`, nil,
			"full-scan on cust c -> index-probe pay p on c.id = p.cust -> top-n(3)"},
		{`SELECT c.id, r.id, t.id FROM cust c JOIN rev r ON r.cust = c.id JOIN tag t ON t.cust = c.id ORDER BY r.label LIMIT 3`, nil,
			"full-scan on cust c -> hash-join rev r on c.id = r.cust -> hash-join tag t on c.id = t.cust -> top-n(3)"},
	}
	run := func(tx *storage.Txn) {
		t.Helper()
		for _, s := range stmts {
			d.compare(tx, s.src, s.params...)
		}
		for _, s := range planned {
			if plan := d.compare(tx, s.src, s.params...); plan != s.plan {
				t.Errorf("%s\n\tplan: %s\n\twant: %s", s.src, plan, s.plan)
			}
		}
	}
	tx = d.e.Begin()
	run(tx)
	tx.Abort()

	// The same statements under the transaction's own writes: new first
	// and last keys, the old ones deleted, rows moved into an index value,
	// out of it and to NULL, rows moved between groups, a join key moved
	// or set to NULL, a key inserted then deleted, a table filled that was
	// empty.
	tx = d.e.Begin()
	d.insert(tx, "cust", int64(0), "name00", "north", 9.5, true)
	d.insert(tx, "cust", int64(40), "zed", nil, 0.5, false)
	d.delete(tx, "cust", []any{int64(1)})
	d.delete(tx, "cust", []any{int64(12)})
	d.update(tx, "cust", int64(5), "name99", "south", nil, true)
	d.update(tx, "cust", int64(6), "name06", "north", 3.0, true)
	d.update(tx, "cust", int64(4), "name04", "east", 6.0, false)
	d.update(tx, "cust", int64(8), "name08", nil, 4.5, false)
	d.insert(tx, "cust", int64(7000), "gone", "east", 1.0, true)
	d.delete(tx, "cust", []any{int64(7000)})
	d.insert(tx, "ord", int64(0), int64(1), int64(40), "a1", int64(3), 2.5)
	d.insert(tx, "ord", int64(11), int64(1), int64(0), "zz", int64(0), 0.5)
	d.insert(tx, "ord", int64(3), int64(9), int64(2), "b2", int64(2), 1.5)
	d.delete(tx, "ord", []any{int64(10), int64(3)})
	d.delete(tx, "ord", []any{int64(3), int64(1)})
	d.update(tx, "ord", int64(4), int64(1), nil, "c1", int64(1), 9.5)
	d.update(tx, "ord", int64(5), int64(1), int64(3), "a1", int64(1), 2.5)
	d.insert(tx, "item", "zz", "last title", int64(1))
	d.delete(tx, "item", []any{"a1"})
	d.update(tx, "item", "b1", "title 0", int64(1))
	d.insert(tx, "tag", int64(10), int64(40), "t1")
	d.update(tx, "tag", int64(3), int64(6), "t0")
	d.update(tx, "tag", int64(2), int64(3), "t1")
	d.update(tx, "tag", int64(4), int64(1), "t2")
	d.update(tx, "tag", int64(7), nil, nil)
	d.delete(tx, "tag", []any{int64(1)})
	// rev under own writes: a label moved into a run, out of it and to
	// NULL, a join key moved and set to NULL, new rows first and last in
	// a run, a row deleted, and a new customer its rows point at.
	d.update(tx, "rev", int64(2), int64(9), "r1", int64(2), "b2")
	d.update(tx, "rev", int64(3), int64(7), nil, int64(0), "a2")
	d.update(tx, "rev", int64(7), nil, "r1", int64(2), "a1")
	d.update(tx, "rev", int64(12), int64(40), "r0", int64(1), "c1")
	d.insert(tx, "rev", int64(0), int64(2), "r1", int64(2), "zz")
	d.insert(tx, "rev", int64(30), int64(0), "r1", nil, "a1")
	d.delete(tx, "rev", []any{int64(10)})
	d.insert(tx, "empty", int64(5), int64(50))
	// pay rows moved into a build's keys (north is now 0 and 6), out of
	// them, between them and to NULL; new first and matching keys; a
	// matching row deleted; an amount moved onto an east key.
	d.update(tx, "pay", int64(5), int64(0), 2.5, "n1")
	d.update(tx, "pay", int64(12), int64(7), 1.0, "n0")
	d.update(tx, "pay", int64(15), int64(6), 3.5, "n3")
	d.update(tx, "pay", int64(20), nil, 4.0, "n0")
	d.update(tx, "pay", int64(8), int64(11), 4.0, "n0")
	d.insert(tx, "pay", int64(0), int64(6), 10.0, "n0")
	d.insert(tx, "pay", int64(30), int64(0), nil, "n2")
	d.delete(tx, "pay", []any{int64(24)})
	d.insert(tx, "pay", int64(40), int64(6), 1.0, "n0")
	d.delete(tx, "pay", []any{int64(40)})
	run(tx)
	tx.Abort()
}

// gen writes random SELECTs over three tables that differ in the shape
// of their primary key and share the rest: x, y small integers (many
// ties and join matches), f a float, s a short string, g a boolean —
// all nullable.
type gen struct {
	rng *rand.Rand
	// indexed names, per table, the columns with a secondary index: at
	// least one each.
	indexed map[string][]string
	// mayFail lets predicates in that can raise an error on some rows.
	mayFail bool
	params  []any
}

var genTables = []struct {
	name string
	key  []string
}{
	{"t0", []string{"id"}},
	{"t1", []string{"id", "sub"}},
	{"t2", []string{"code"}},
}

var genWords = []string{"ab", "abc", "b", "ba", "c", "cab", ""}

func (g *gen) pick(xs ...string) string { return xs[g.rng.Intn(len(xs))] }

// constant renders a literal of the given column's family, or passes it
// as a parameter.
func (g *gen) constant(col string) string {
	var v any
	switch col {
	case "s", "code":
		v = genWords[g.rng.Intn(len(genWords))]
	case "f":
		v = float64(g.rng.Intn(9)) * 0.5
		if g.rng.Intn(4) == 0 {
			v = int64(g.rng.Intn(4))
		}
	default:
		v = int64(g.rng.Intn(8))
		if g.rng.Intn(8) == 0 {
			v = float64(g.rng.Intn(8)) + 0.5*float64(g.rng.Intn(2))
		}
	}
	if g.rng.Intn(3) == 0 {
		g.params = append(g.params, v)
		return "?"
	}
	if s, ok := v.(string); ok {
		return "'" + s + "'"
	}
	if f, ok := v.(float64); ok {
		return fmt.Sprintf("%.1f", f)
	}
	return fmt.Sprint(v)
}

func (g *gen) numCol(alias string, key []string) string {
	cols := append([]string{"x", "y", "f"}, key...)
	for {
		if c := cols[g.rng.Intn(len(cols))]; c != "code" {
			return alias + "." + c
		}
	}
}

func (g *gen) strCol(alias string, key []string) string {
	if key[0] == "code" && g.rng.Intn(2) == 0 {
		return alias + ".code"
	}
	return alias + ".s"
}

func bare(col string) string { return col[strings.IndexByte(col, '.')+1:] }

type genFrom struct {
	alias, name string
	key         []string
}

func (g *gen) pred(from []genFrom, depth int) string {
	t := from[g.rng.Intn(len(from))]
	u := from[g.rng.Intn(len(from))]
	if depth > 0 && g.rng.Intn(3) == 0 {
		switch g.rng.Intn(4) {
		case 0:
			return "(" + g.pred(from, depth-1) + " OR " + g.pred(from, depth-1) + ")"
		case 1:
			return "NOT (" + g.pred(from, depth-1) + ")"
		default:
			return "(" + g.pred(from, depth-1) + " AND " + g.pred(from, depth-1) + ")"
		}
	}
	cmp := g.pick("=", "<>", "<", "<=", ">", ">=", "=", ">")
	n := 11
	if g.mayFail {
		n = 14
	}
	switch g.rng.Intn(n) {
	case 0, 1, 2:
		c := g.numCol(t.alias, t.key)
		return c + " " + cmp + " " + g.constant(bare(c))
	case 3:
		c := g.strCol(t.alias, t.key)
		return c + " " + cmp + " " + g.constant("s")
	case 4:
		return g.numCol(t.alias, t.key) + " " + cmp + " " + g.numCol(u.alias, u.key)
	case 5:
		return g.strCol(t.alias, t.key) + " LIKE '" + g.pick("a%", "%b", "_a%", "%", "c__", "ab") + "'"
	case 6:
		c := g.numCol(t.alias, t.key)
		return c + " BETWEEN " + g.constant(bare(c)) + " AND " + g.constant(bare(c))
	case 7:
		return t.alias + "." + g.pick("x", "y", "f", "s", "g") + g.pick(" IS NULL", " IS NOT NULL")
	case 8:
		return t.alias + ".g"
	case 9:
		return g.numCol(t.alias, t.key) + " " + g.pick("+", "-", "*") + " " + g.constant("x") + " " + cmp + " " + g.numCol(u.alias, u.key)
	case 10:
		return g.constant("x") + " " + cmp + " " + g.numCol(t.alias, t.key)
	case 11:
		return g.constant("y") + " / " + t.alias + ".x " + cmp + " 1"
	case 12:
		return g.strCol(t.alias, t.key) + " " + cmp + " " + g.constant("x")
	default:
		return "NOT " + t.alias + ".y"
	}
}

// statement returns one SELECT and its parameters.
func (g *gen) statement() (string, []any) {
	g.params = nil
	// A sixth of the statements take a join walk's shape (joinOrder): two
	// tables joined on the base's whole key, ORDER BY the joined table's
	// indexed column, or nearly, and a LIMIT.
	walk := g.rng.Intn(6) == 0
	order := g.rng.Perm(len(genTables))
	if walk && len(genTables[order[0]].key) > 1 {
		order[0], order[1] = order[1], order[0]
	}
	from := []genFrom{{"a", genTables[order[0]].name, genTables[order[0]].key}}
	src := " FROM " + genTables[order[0]].name + " a"
	for i, n := 1, g.rng.Intn(6); i < len(order) && (n >= 3+i-1 || walk && i == 1); i++ { // 0, 1 or 2 joins
		alias := string(rune('a' + i))
		right := genFrom{alias, genTables[order[i]].name, genTables[order[i]].key}
		left := from[g.rng.Intn(len(from))]
		var l, r string
		if key := from[0].key; i == 1 && len(key) == 1 && (walk || g.rng.Intn(4) == 0) {
			// The base's whole key, which a join walk probes.
			l, r = "a."+key[0], g.numCol(alias, right.key)
			if key[0] == "code" {
				r = g.strCol(alias, right.key)
			}
		} else if cols := g.indexed[genTables[order[0]].name]; i == 1 && g.rng.Intn(2) == 0 {
			// The driving table's indexed column, which a keyed fetch reads.
			c := cols[g.rng.Intn(len(cols))]
			l, r = "a."+c, g.numCol(alias, right.key)
			if c == "s" {
				r = g.strCol(alias, right.key)
			}
		} else if g.rng.Intn(5) == 0 {
			l, r = g.strCol(left.alias, left.key), g.strCol(alias, right.key)
		} else {
			l, r = g.numCol(left.alias, left.key), g.numCol(alias, right.key)
		}
		if g.rng.Intn(2) == 0 {
			l, r = r, l
		}
		src += " JOIN " + genTables[order[i]].name + " " + alias + " ON " + l + " = " + r
		from = append(from, right)
	}
	if g.rng.Intn(5) > 0 {
		src += " WHERE " + g.pred(from, 2)
		for g.rng.Intn(2) == 0 {
			src += " AND " + g.pred(from, 1)
		}
	}

	base := from[0]
	var items, orderBy []string
	if !walk && g.rng.Intn(4) == 0 { // aggregated
		var groupBy []string
		for n := g.rng.Intn(3); n > 0; n-- {
			t := from[g.rng.Intn(len(from))]
			groupBy = append(groupBy, t.alias+"."+g.pick("x", "s", "g", "y"))
		}
		items = append(items, groupBy...)
		t := from[g.rng.Intn(len(from))]
		aggs := []string{"COUNT(*)", "SUM(" + t.alias + ".y)", "MIN(" + t.alias + ".s)", "AVG(" + t.alias + ".f)",
			"COUNT(DISTINCT " + t.alias + ".x)", "MAX(" + g.numCol(t.alias, t.key) + ")", "SUM(" + t.alias + ".x * 2) + 1"}
		for _, i := range g.rng.Perm(len(aggs))[:1+g.rng.Intn(3)] {
			items = append(items, aggs[i])
		}
		items[len(items)-1] += " AS agg"
		if len(groupBy) > 0 {
			src += " GROUP BY " + strings.Join(groupBy, ", ")
		}
		for _, c := range append(groupBy, "agg") {
			if g.rng.Intn(2) == 0 {
				orderBy = append(orderBy, c+g.pick("", " DESC"))
			}
		}
	} else {
		switch g.rng.Intn(4) {
		case 0:
			items = []string{"*"}
		default:
			for n := 1 + g.rng.Intn(3); n > 0; n-- {
				t := from[g.rng.Intn(len(from))]
				items = append(items, g.pick(g.numCol(t.alias, t.key), g.strCol(t.alias, t.key), t.alias+".g", g.numCol(t.alias, t.key)+" + 1"))
			}
		}
		shape := g.rng.Intn(6)
		if walk {
			shape = 4
		}
		switch shape {
		case 0: // the scan's own order, or nearly
			for _, k := range base.key[:1+g.rng.Intn(len(base.key))] {
				orderBy = append(orderBy, "a."+k)
			}
			if g.rng.Intn(6) == 0 {
				orderBy[len(orderBy)-1] += " DESC"
			}
		case 1: // an index's order, or nearly
			cols := g.indexed[genTables[order[0]].name]
			orderBy = append(orderBy, "a."+cols[g.rng.Intn(len(cols))])
			for _, k := range base.key[:g.rng.Intn(1+len(base.key))] {
				orderBy = append(orderBy, "a."+k)
			}
			if g.rng.Intn(6) == 0 {
				orderBy[g.rng.Intn(len(orderBy))] += " DESC"
			}
		case 4: // a joined table's index order, or nearly
			if len(from) == 1 {
				break
			}
			cols := g.indexed[from[1].name]
			orderBy = append(orderBy, "b."+cols[g.rng.Intn(len(cols))]+g.pick("", "", "", "", " DESC"))
			if g.rng.Intn(6) == 0 {
				orderBy = append(orderBy, "b."+from[1].key[0])
			}
		case 2, 3:
			for n := 1 + g.rng.Intn(2); n > 0; n-- {
				t := from[g.rng.Intn(len(from))]
				orderBy = append(orderBy, g.pick(g.numCol(t.alias, t.key), g.strCol(t.alias, t.key), t.alias+".g")+g.pick("", " DESC"))
			}
		}
	}
	src = "SELECT " + strings.Join(items, ", ") + src
	if len(orderBy) > 0 {
		src += " ORDER BY " + strings.Join(orderBy, ", ")
	}
	if walk || g.rng.Intn(2) == 0 {
		src += fmt.Sprintf(" LIMIT %d", g.pick2(0, 1, 2, 3, 5, 8, 1000))
		if g.rng.Intn(3) == 0 {
			src += fmt.Sprintf(" OFFSET %d", g.pick2(0, 1, 2, 4, 50))
		}
	}
	return src, g.params
}

func (g *gen) pick2(xs ...int) int { return xs[g.rng.Intn(len(xs))] }

// varyParams returns another parameter set for the same statement: each
// parameter, with even odds, becomes NULL (an integer or a float), an
// integer (a NULL), another value of its type, or — where the statement
// may fail anyway — a string in place of a number.
func varyParams(rng *rand.Rand, params []any, mayFail bool) []any {
	out := append([]any(nil), params...)
	for i, v := range out {
		if rng.Intn(2) == 0 {
			continue
		}
		switch v.(type) {
		case nil:
			out[i] = int64(rng.Intn(8))
		case string:
			out[i] = genWords[rng.Intn(len(genWords))]
		default:
			switch {
			case mayFail && rng.Intn(3) == 0:
				out[i] = genWords[rng.Intn(len(genWords))]
			case rng.Intn(2) == 0:
				out[i] = nil
			default:
				out[i] = int64(rng.Intn(8))
			}
		}
	}
	return out
}

// randomRow draws the non-key columns.
func randomRow(rng *rand.Rand, key ...any) []any {
	null := func(v any) any {
		if rng.Intn(6) == 0 {
			return nil
		}
		return v
	}
	return append(key,
		null(int64(rng.Intn(5))),
		null(int64(rng.Intn(8))),
		null(float64(rng.Intn(9))*0.5),
		null(genWords[rng.Intn(len(genWords))]),
		null(rng.Intn(2) == 0))
}

// TestDifferentialRandom compares executor and oracle on seeded random
// schemas' worth of indexes, data and statements: first on committed
// data, then under a transaction's own pending writes. Some statements
// must run a filtered build, some a keyed fetch, some an index walk of
// the base and some a join walk, or the test says nothing about them.
func TestDifferentialRandom(t *testing.T) {
	seeds := 30
	if testing.Short() {
		seeds = 6
	}
	var builds, fetches, walks, joinWalks int
	for seed := 0; seed < seeds; seed++ {
		n := differentialRandom(t, int64(seed))
		builds, fetches, walks, joinWalks = builds+n.builds, fetches+n.fetches, walks+n.walks, joinWalks+n.joinWalks
	}
	if builds == 0 {
		t.Fatal("no statement ran a filtered build")
	}
	if fetches == 0 {
		t.Fatal("no statement ran a keyed fetch")
	}
	if walks == 0 {
		t.Fatal("no statement walked an index")
	}
	if joinWalks == 0 {
		t.Fatal("no statement drove a join from a joined table's index")
	}
	t.Logf("%d statements ran a filtered build, %d a keyed fetch, %d walked the base's index, %d a joined table's",
		builds, fetches, walks, joinWalks)
}

// FuzzDifferentialSQL is TestDifferentialRandom on seeds beyond its own,
// prepared statements' kept plans included.
func FuzzDifferentialSQL(f *testing.F) {
	for seed := int64(0); seed < 30; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) { differentialRandom(t, seed) })
}

// planCounts counts the statements of a batch by the plans they ran.
type planCounts struct {
	builds, fetches, walks, joinWalks int
}

// differentialRandom builds one random schema, data set and statement
// batch from seed, compares executor and oracle on all of it, runs each
// statement through a prepared statement with its parameters and with
// varied ones (comparePrepared), and returns how many statements ran a
// filtered build, a keyed fetch, an index walk of the base and a join
// walk.
func differentialRandom(t *testing.T, seed int64) (n planCounts) {
	const perSeed = 120
	rng := rand.New(rand.NewSource(seed))
	ddl := []string{
		`CREATE TABLE t0 (id INT PRIMARY KEY, x INT, y INT, f FLOAT, s TEXT, g BOOL)`,
		`CREATE TABLE t1 (id INT, sub INT, x INT, y INT, f FLOAT, s TEXT, g BOOL, PRIMARY KEY (id, sub))`,
		`CREATE TABLE t2 (code TEXT PRIMARY KEY, x INT, y INT, f FLOAT, s TEXT, g BOOL)`,
	}
	indexed := map[string][]string{}
	for _, tab := range genTables {
		cols := []string{"x", "y", "s", "f"}
		for _, col := range cols {
			if rng.Intn(3) == 0 {
				indexed[tab.name] = append(indexed[tab.name], col)
			}
		}
		if len(indexed[tab.name]) == 0 {
			indexed[tab.name] = []string{cols[rng.Intn(len(cols))]}
		}
		for _, col := range indexed[tab.name] {
			ddl = append(ddl, fmt.Sprintf(`CREATE INDEX %s_%s ON %s (%s)`, tab.name, col, tab.name, col))
		}
	}
	d := newDiff(t, ddl...)
	keyOf := func(table string) []any {
		switch table {
		case "t0":
			return []any{int64(rng.Intn(40))}
		case "t1":
			return []any{int64(rng.Intn(8)), int64(rng.Intn(6))}
		}
		return []any{genWords[rng.Intn(len(genWords))] + string(rune('a'+rng.Intn(4)))}
	}
	write := func(tx *storage.Txn, n int) {
		for i := 0; i < n; i++ {
			table := genTables[rng.Intn(len(genTables))].name
			row := randomRow(rng, keyOf(table)...)
			_, exists := d.db[table].find(row)
			switch {
			case !exists:
				d.insert(tx, table, row...)
			case rng.Intn(3) == 0:
				d.delete(tx, table, row)
			default:
				d.update(tx, table, row...)
			}
		}
	}
	// Two commits, so the indexes also hold entries of versions the
	// second one replaced.
	tx := d.e.Begin()
	write(tx, 20+rng.Intn(120))
	d.commit(tx)
	tx = d.e.Begin()
	write(tx, 10+rng.Intn(40))
	d.commit(tx)

	g := &gen{rng: rng, indexed: indexed}
	// The varied parameters draw from a stream of their own, so the
	// statements are the ones the seed always made.
	vary := rand.New(rand.NewSource(seed ^ 0x5ca1ab1e))
	tx = d.e.Begin()
	defer tx.Abort()
	for i := 0; i < perSeed; i++ {
		if i == perSeed/2 {
			write(tx, 5+rng.Intn(40))
		}
		g.mayFail = i%4 == 3
		src, params := g.statement()
		plan := d.compare(tx, src, params...)
		d.comparePrepared(tx, src, params, varyParams(vary, params, g.mayFail))
		switch {
		case strings.HasPrefix(plan, "index-order(") && strings.Contains(plan, " b -> pk-probe "):
			n.joinWalks++
		case strings.HasPrefix(plan, "index-order("):
			n.walks++
		}
		if strings.Contains(plan, " via ") { // a filtered build
			n.builds++
		}
		if strings.Contains(plan, " keyed-fetch(") {
			n.fetches++
		}
	}
	return n
}

// TestDifferentialTPCW runs every prepared SELECT of the TPC-W workload
// against the oracle on the data set the end-to-end benchmark loads, with
// the parameters the interactions draw, before and after the writes of a
// purchase in the same transaction.
func TestDifferentialTPCW(t *testing.T) {
	if testing.Short() {
		t.Skip("cross products over the default scale")
	}
	scale := tpcw.DefaultScale()
	d := &diff{t: t, e: storage.NewEngine(), db: refDB{}}
	if err := tpcw.Load(d.e, scale); err != nil {
		t.Fatal(err)
	}
	tx := d.e.Begin()
	for _, name := range tpcw.Tables {
		s, _ := d.e.Schema(name)
		d.db.create(s)
		kvs, err := tx.ScanAll(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, kv := range kvs {
			d.db[name].rows = append(d.db[name].rows, kv.Row)
		}
	}
	floor := int64(scale.Customers * 9 / 10 * 7 / 10)
	// Parameter sets by a fragment of the statement's text; every SELECT
	// in tpcw.TxnNames must match one.
	paramSets := []struct {
		fragment string
		sets     [][]any
	}{
		{"FROM customer WHERE c_id", [][]any{{int64(1)}, {int64(777)}, {int64(999999)}}},
		{"FROM customer WHERE c_uname", [][]any{{tpcw.UserName(5)}, {"nobody"}}},
		{"WHERE i_id >= ?", [][]any{{int64(1)}, {int64(500)}, {int64(998)}, {int64(5000)}}},
		{"ORDER BY i.i_pub_date DESC", [][]any{{"ARTS"}, {"TRAVEL"}, {"NOPE"}}},
		{"AS total_qty", [][]any{{floor, "ARTS"}, {floor, "COMPUTERS"}, {int64(0), "YOUTH"}, {int64(1) << 50, "ARTS"}}},
		{"i.i_desc", [][]any{{int64(3)}, {int64(1000)}, {int64(1001)}}},
		{"a.a_lname LIKE", [][]any{{"lastname_%"}, {"lastname_00%"}, {tpcw.AuthorLastName(17)}, {"x%"}}},
		{"i.i_title LIKE", [][]any{{"title_0%"}, {"title_0000%"}, {"%book 7%"}}},
		{"WHERE i.i_subject = ? ORDER BY i.i_title", [][]any{{"HISTORY"}, {"NOPE"}}},
		{"FROM shopping_cart WHERE", [][]any{{int64(1)}, {int64(tpcw.CartIDBase + 1)}}},
		{"FROM shopping_cart_line WHERE", [][]any{{int64(tpcw.CartIDBase + 1), int64(7)}}},
		{"FROM shopping_cart_line scl JOIN", [][]any{{int64(tpcw.CartIDBase + 1)}, {int64(1)}}},
		{"MAX(o_id)", [][]any{nil}},
		{"SELECT i_stock", [][]any{{int64(7)}}},
		{"ORDER BY o_id DESC LIMIT 1", [][]any{{int64(1)}, {int64(42)}, {int64(1440)}}},
		{"WHERE ol.ol_o_id = ?", [][]any{{int64(1)}, {int64(900)}, {int64(tpcw.OrderIDBase + 1)}}},
		{"FROM address a JOIN country", [][]any{{int64(1)}, {int64(2880)}}},
		{"GROUP BY ol.ol_i_id", [][]any{{floor}, {int64(0)}, {int64(1) << 50}}},
	}
	run := func() {
		t.Helper()
		seen := map[*sql.Prepared]bool{}
		for _, stmts := range tpcw.TxnNames {
			for _, st := range stmts {
				if !st.ReadOnly || seen[st] {
					continue
				}
				seen[st] = true
				matched := false
				for _, ps := range paramSets {
					if !strings.Contains(st.SQL, ps.fragment) {
						continue
					}
					matched = true
					for _, params := range ps.sets {
						d.compare(tx, st.SQL, params...)
					}
				}
				if !matched {
					t.Errorf("no parameters for %q", st.SQL)
				}
			}
		}
	}
	run()

	// A purchase's writes, pending: a new last order with lines (one a
	// best seller's), stock changed, a cart filled, and the oldest order
	// gone.
	oid := int64(tpcw.OrderIDBase + 1)
	d.insert(tx, "orders", oid, int64(42), int64(13100), 10.0, 0.8, 14.8, "AIR", int64(13101), int64(1), int64(2), "PENDING")
	for line, item := range []int64{7, 500, 998} {
		d.insert(tx, "order_line", oid, int64(line+1), item, int64(300), 0.0, "buy")
	}
	old := d.db["orders"].rows[0]
	d.delete(tx, "orders", old)
	it := append([]any(nil), d.db["item"].rows[6]...)
	it[17] = int64(3)
	d.update(tx, "item", it...)
	cart := int64(tpcw.CartIDBase + 1)
	d.insert(tx, "shopping_cart", cart, int64(13000))
	d.insert(tx, "shopping_cart_line", cart, int64(7), int64(2))
	d.insert(tx, "shopping_cart_line", cart, int64(3), int64(1))
	run()
	tx.Abort()
}
