package sql

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"sconrep/internal/storage"
)

// harness: an engine plus a helper to run statements in autocommit
// transactions.
type harness struct {
	t *testing.T
	e *storage.Engine
}

func newHarness(t *testing.T) *harness {
	return &harness{t: t, e: storage.NewEngine()}
}

func (h *harness) exec(src string, params ...any) *Result {
	h.t.Helper()
	tx := h.e.Begin()
	res, err := Exec(tx, h.e, src, params...)
	if err != nil {
		h.t.Fatalf("exec %q: %v", src, err)
	}
	if _, err := tx.CommitLocal(); err != nil {
		h.t.Fatalf("commit %q: %v", src, err)
	}
	return res
}

func (h *harness) execErr(src string, params ...any) error {
	h.t.Helper()
	tx := h.e.Begin()
	defer tx.Abort()
	_, err := Exec(tx, h.e, src, params...)
	if err == nil {
		h.t.Fatalf("exec %q: expected error", src)
	}
	return err
}

func (h *harness) query(src string, params ...any) *Result {
	h.t.Helper()
	tx := h.e.Begin()
	defer tx.Abort()
	res, err := Exec(tx, h.e, src, params...)
	if err != nil {
		h.t.Fatalf("query %q: %v", src, err)
	}
	return res
}

func setupEmployees(t *testing.T) *harness {
	h := newHarness(t)
	h.exec(`CREATE TABLE emp (
		id INT PRIMARY KEY,
		name TEXT,
		dept TEXT,
		salary FLOAT,
		active BOOL
	)`)
	h.exec(`CREATE INDEX emp_dept ON emp (dept)`)
	h.exec(`CREATE TABLE dept (name TEXT PRIMARY KEY, city TEXT)`)
	h.exec(`INSERT INTO dept VALUES ('eng', 'SEA'), ('sales', 'NYC'), ('hr', 'LON')`)
	h.exec(`INSERT INTO emp VALUES
		(1, 'ann', 'eng', 120.0, TRUE),
		(2, 'bob', 'eng', 100.0, TRUE),
		(3, 'carol', 'sales', 90.0, TRUE),
		(4, 'dave', 'sales', 80.0, FALSE),
		(5, 'erin', 'hr', 70.0, TRUE)`)
	return h
}

func TestCreateInsertSelectStar(t *testing.T) {
	h := setupEmployees(t)
	res := h.query(`SELECT * FROM emp ORDER BY id`)
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(res.Rows))
	}
	if len(res.Columns) != 5 || res.Columns[0] != "emp.id" {
		t.Fatalf("columns = %v", res.Columns)
	}
	if res.Rows[0][1].(string) != "ann" || res.Rows[4][1].(string) != "erin" {
		t.Fatalf("order wrong: %v", res.Rows)
	}
}

func TestSelectProjectionAndAlias(t *testing.T) {
	h := setupEmployees(t)
	res := h.query(`SELECT name, salary * 2 AS double_pay FROM emp WHERE id = 1`)
	if res.Columns[0] != "name" || res.Columns[1] != "double_pay" {
		t.Fatalf("columns = %v", res.Columns)
	}
	if len(res.Rows) != 1 || res.Rows[0][1].(float64) != 240.0 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestWherePredicates(t *testing.T) {
	h := setupEmployees(t)
	cases := []struct {
		where string
		want  int
	}{
		{`salary > 90`, 2},
		{`salary >= 90`, 3},
		{`salary < 80`, 1},
		{`salary <= 80`, 2},
		{`salary <> 90`, 4},
		{`dept = 'eng' AND salary > 100`, 1},
		{`dept = 'eng' OR dept = 'hr'`, 3},
		{`NOT active`, 1},
		{`salary BETWEEN 80 AND 100`, 3},
		{`name LIKE 'a%'`, 1},
		{`name LIKE '%o%'`, 2},
		{`name LIKE '_ob'`, 1},
		{`active AND (dept = 'sales' OR salary > 110)`, 2},
	}
	for _, c := range cases {
		res := h.query(`SELECT id FROM emp WHERE ` + c.where)
		if len(res.Rows) != c.want {
			t.Errorf("WHERE %s: got %d rows, want %d", c.where, len(res.Rows), c.want)
		}
	}
}

func TestPlaceholders(t *testing.T) {
	h := setupEmployees(t)
	res := h.query(`SELECT name FROM emp WHERE dept = ? AND salary >= ?`, "eng", 110)
	if len(res.Rows) != 1 || res.Rows[0][0].(string) != "ann" {
		t.Fatalf("rows = %v", res.Rows)
	}
	// Missing parameter is an error.
	tx := h.e.Begin()
	defer tx.Abort()
	if _, err := Exec(tx, h.e, `SELECT name FROM emp WHERE dept = ?`); err == nil {
		t.Fatal("missing param accepted")
	}
}

func TestOrderByLimitOffset(t *testing.T) {
	h := setupEmployees(t)
	res := h.query(`SELECT name FROM emp ORDER BY salary DESC LIMIT 2`)
	if len(res.Rows) != 2 || res.Rows[0][0].(string) != "ann" || res.Rows[1][0].(string) != "bob" {
		t.Fatalf("rows = %v", res.Rows)
	}
	res = h.query(`SELECT name FROM emp ORDER BY salary DESC LIMIT 2 OFFSET 2`)
	if len(res.Rows) != 2 || res.Rows[0][0].(string) != "carol" {
		t.Fatalf("offset rows = %v", res.Rows)
	}
	res = h.query(`SELECT name FROM emp ORDER BY dept ASC, salary DESC`)
	if res.Rows[0][0].(string) != "ann" || res.Rows[2][0].(string) != "erin" {
		t.Fatalf("multi-key order = %v", res.Rows)
	}
	res = h.query(`SELECT name FROM emp ORDER BY id LIMIT 0`)
	if len(res.Rows) != 0 {
		t.Fatalf("LIMIT 0 returned %d rows", len(res.Rows))
	}
	res = h.query(`SELECT name FROM emp ORDER BY id OFFSET 10`)
	if len(res.Rows) != 0 {
		t.Fatalf("big OFFSET returned %d rows", len(res.Rows))
	}
}

func TestJoinPK(t *testing.T) {
	h := setupEmployees(t)
	res := h.query(`SELECT e.name, d.city FROM emp e JOIN dept d ON e.dept = d.name WHERE e.salary > 90 ORDER BY e.id`)
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Rows[0][1].(string) != "SEA" || res.Rows[1][1].(string) != "SEA" {
		t.Fatalf("join produced %v", res.Rows)
	}
}

func TestJoinReversedOn(t *testing.T) {
	h := setupEmployees(t)
	// ON written with the new table on the left.
	res := h.query(`SELECT e.name, d.city FROM emp e JOIN dept d ON d.name = e.dept WHERE e.id = 5`)
	if len(res.Rows) != 1 || res.Rows[0][1].(string) != "LON" {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestThreeWayJoin(t *testing.T) {
	h := setupEmployees(t)
	h.exec(`CREATE TABLE badge (emp_id INT PRIMARY KEY, code TEXT)`)
	h.exec(`INSERT INTO badge VALUES (1, 'X1'), (3, 'X3')`)
	res := h.query(`SELECT e.name, d.city, b.code
		FROM badge b
		JOIN emp e ON b.emp_id = e.id
		JOIN dept d ON e.dept = d.name
		ORDER BY b.emp_id`)
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Rows[0][2].(string) != "X1" || res.Rows[1][1].(string) != "NYC" {
		t.Fatalf("3-way join = %v", res.Rows)
	}
}

func TestHashJoinFallback(t *testing.T) {
	h := newHarness(t)
	h.exec(`CREATE TABLE a (id INT PRIMARY KEY, v INT)`)
	h.exec(`CREATE TABLE b (id INT PRIMARY KEY, v INT)`)
	h.exec(`INSERT INTO a VALUES (1, 10), (2, 20), (3, 10)`)
	h.exec(`INSERT INTO b VALUES (7, 10), (8, 30), (9, 10)`)
	// Join on non-key, non-indexed column v: hash join path.
	res := h.query(`SELECT a.id, b.id FROM a JOIN b ON a.v = b.v ORDER BY a.id, b.id`)
	if len(res.Rows) != 4 { // (1,7),(1,9),(3,7),(3,9)
		t.Fatalf("hash join rows = %v", res.Rows)
	}
}

func TestAggregates(t *testing.T) {
	h := setupEmployees(t)
	res := h.query(`SELECT COUNT(*), SUM(salary), AVG(salary), MIN(salary), MAX(salary) FROM emp`)
	r := res.Rows[0]
	if r[0].(int64) != 5 || r[1].(float64) != 460.0 || r[2].(float64) != 92.0 ||
		r[3].(float64) != 70.0 || r[4].(float64) != 120.0 {
		t.Fatalf("aggregates = %v", r)
	}
}

func TestGroupBy(t *testing.T) {
	h := setupEmployees(t)
	res := h.query(`SELECT dept, COUNT(*) AS n, SUM(salary) AS total
		FROM emp GROUP BY dept ORDER BY total DESC`)
	if len(res.Rows) != 3 {
		t.Fatalf("groups = %v", res.Rows)
	}
	if res.Rows[0][0].(string) != "eng" || res.Rows[0][1].(int64) != 2 || res.Rows[0][2].(float64) != 220.0 {
		t.Fatalf("top group = %v", res.Rows[0])
	}
	if res.Rows[2][0].(string) != "hr" {
		t.Fatalf("bottom group = %v", res.Rows[2])
	}
}

func TestGroupByWithWhereAndLimit(t *testing.T) {
	h := setupEmployees(t)
	res := h.query(`SELECT dept, COUNT(*) FROM emp WHERE active GROUP BY dept ORDER BY COUNT(*) DESC LIMIT 1`)
	if len(res.Rows) != 1 || res.Rows[0][0].(string) != "eng" || res.Rows[0][1].(int64) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestCountDistinct(t *testing.T) {
	h := setupEmployees(t)
	res := h.query(`SELECT COUNT(DISTINCT dept) FROM emp`)
	if res.Rows[0][0].(int64) != 3 {
		t.Fatalf("count distinct = %v", res.Rows[0][0])
	}
}

func TestAggregateOverEmptyInput(t *testing.T) {
	h := setupEmployees(t)
	res := h.query(`SELECT COUNT(*), SUM(salary), MIN(salary) FROM emp WHERE salary > 1000`)
	r := res.Rows[0]
	if r[0].(int64) != 0 || r[1] != nil || r[2] != nil {
		t.Fatalf("empty aggregates = %v", r)
	}
	// GROUP BY over empty input yields zero groups.
	res = h.query(`SELECT dept, COUNT(*) FROM emp WHERE salary > 1000 GROUP BY dept`)
	if len(res.Rows) != 0 {
		t.Fatalf("empty group-by yielded %v", res.Rows)
	}
}

func TestAggregateWithArithmetic(t *testing.T) {
	h := setupEmployees(t)
	res := h.query(`SELECT SUM(salary) / COUNT(*) FROM emp`)
	if res.Rows[0][0].(float64) != 92.0 {
		t.Fatalf("computed avg = %v", res.Rows[0][0])
	}
}

func TestUpdate(t *testing.T) {
	h := setupEmployees(t)
	res := h.exec(`UPDATE emp SET salary = salary + 10 WHERE dept = 'eng'`)
	if res.Affected != 2 {
		t.Fatalf("affected = %d, want 2", res.Affected)
	}
	q := h.query(`SELECT salary FROM emp WHERE id = 1`)
	if q.Rows[0][0].(float64) != 130.0 {
		t.Fatalf("salary = %v", q.Rows[0][0])
	}
}

func TestUpdateByPK(t *testing.T) {
	h := setupEmployees(t)
	res := h.exec(`UPDATE emp SET name = ?, active = FALSE WHERE id = ?`, "anna", 1)
	if res.Affected != 1 {
		t.Fatalf("affected = %d", res.Affected)
	}
	q := h.query(`SELECT name, active FROM emp WHERE id = 1`)
	if q.Rows[0][0].(string) != "anna" || q.Rows[0][1].(bool) != false {
		t.Fatalf("row = %v", q.Rows[0])
	}
}

func TestDelete(t *testing.T) {
	h := setupEmployees(t)
	res := h.exec(`DELETE FROM emp WHERE active = FALSE`)
	if res.Affected != 1 {
		t.Fatalf("affected = %d, want 1", res.Affected)
	}
	q := h.query(`SELECT COUNT(*) FROM emp`)
	if q.Rows[0][0].(int64) != 4 {
		t.Fatalf("count = %v", q.Rows[0][0])
	}
}

func TestInsertPartialColumns(t *testing.T) {
	h := setupEmployees(t)
	h.exec(`INSERT INTO emp (id, name) VALUES (10, 'zoe')`)
	q := h.query(`SELECT dept, salary FROM emp WHERE id = 10`)
	if q.Rows[0][0] != nil || q.Rows[0][1] != nil {
		t.Fatalf("defaults = %v", q.Rows[0])
	}
}

func TestNullSemantics(t *testing.T) {
	h := setupEmployees(t)
	h.exec(`INSERT INTO emp (id, name) VALUES (10, 'zoe')`)
	// NULL comparisons are UNKNOWN: the row must not match either way.
	if res := h.query(`SELECT id FROM emp WHERE salary > 0`); len(res.Rows) != 5 {
		t.Fatalf("salary > 0 matched %d", len(res.Rows))
	}
	if res := h.query(`SELECT id FROM emp WHERE salary <= 0`); len(res.Rows) != 0 {
		t.Fatalf("salary <= 0 matched %d", len(res.Rows))
	}
	if res := h.query(`SELECT id FROM emp WHERE salary IS NULL`); len(res.Rows) != 1 {
		t.Fatalf("IS NULL matched %d", len(res.Rows))
	}
	if res := h.query(`SELECT id FROM emp WHERE salary IS NOT NULL`); len(res.Rows) != 5 {
		t.Fatalf("IS NOT NULL matched %d", len(res.Rows))
	}
	// Aggregates skip NULLs; COUNT(*) does not.
	res := h.query(`SELECT COUNT(*), COUNT(salary) FROM emp`)
	if res.Rows[0][0].(int64) != 6 || res.Rows[0][1].(int64) != 5 {
		t.Fatalf("counts = %v", res.Rows[0])
	}
}

func TestDuplicateKeyError(t *testing.T) {
	h := setupEmployees(t)
	err := h.execErr(`INSERT INTO emp (id, name) VALUES (1, 'dup')`)
	if !errors.Is(err, storage.ErrDuplicateKey) {
		t.Fatalf("err = %v", err)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		`SELECT`,
		`SELECT FROM emp`,
		`SELECT * FROM`,
		`SELECT * FROM emp WHERE`,
		`INSERT INTO emp`,
		`UPDATE emp WHERE id = 1`,
		`DELETE emp`,
		`CREATE TABLE t`,
		`CREATE TABLE t (a INT)`, // no primary key
		`SELECT * FROM emp; SELECT * FROM emp`,
		`SELECT * FROM emp LIMIT x`,
		`FROBNICATE`,
		`SELECT 'unterminated FROM emp`,
		`SELECT a ! b FROM emp`,
	}
	for _, src := range bad {
		if stmt, err := Parse(src); err == nil {
			if ct, ok := stmt.(*CreateTable); ok {
				// CREATE TABLE without key parses; the engine rejects it.
				e := storage.NewEngine()
				if err := e.CreateTable(ct.Schema); err == nil {
					t.Errorf("parse+create %q succeeded", src)
				}
				continue
			}
			t.Errorf("Parse(%q) succeeded: %#v", src, stmt)
		}
	}
}

func TestUnknownColumnAndTableErrors(t *testing.T) {
	h := setupEmployees(t)
	h.execErr(`SELECT nope FROM emp`)
	h.execErr(`SELECT * FROM nope`)
	h.execErr(`UPDATE emp SET nope = 1`)
	h.execErr(`INSERT INTO emp (nope) VALUES (1)`)
	err := h.execErr(`SELECT id FROM emp JOIN dept ON emp.dept = dept.nosuch`)
	if !strings.Contains(err.Error(), "nosuch") && !strings.Contains(err.Error(), "orient") {
		t.Fatalf("join err = %v", err)
	}
	// A name that resolves nowhere is an error of the statement, not of
	// the rows: reported when no row reaches the expression — an empty
	// table, a WHERE that rejects everything, an AND that short-circuits
	// before it, a LIMIT of none — and wherever in the statement it is.
	h.exec(`CREATE TABLE t (id INT PRIMARY KEY, v INT)`)
	for _, src := range []string{
		`SELECT nosuch FROM t`,
		`SELECT id FROM t WHERE nosuch = 1`,
		`SELECT id FROM t WHERE nosuch = 1 ORDER BY alsono`,
		`SELECT id FROM t ORDER BY nosuch`,
		`SELECT COUNT(*) FROM t GROUP BY nosuch`,
		`SELECT SUM(nosuch) FROM t`,
		`SELECT t.id FROM t JOIN emp ON emp.id = t.id WHERE emp.nosuch = 1`,
		`UPDATE t SET v = nosuch`,
		`UPDATE t SET v = 1 WHERE nosuch = 1`,
		`DELETE FROM t WHERE nosuch = 1`,
		`SELECT id FROM emp WHERE id = 99 AND nosuch = 1`,
		`SELECT id FROM emp WHERE FALSE AND nosuch = 1`,
		`SELECT id FROM emp WHERE id < 0 AND nosuch = 1`,
		`SELECT nosuch FROM emp WHERE id < 0`,
		`SELECT nosuch FROM emp LIMIT 0`,
		`SELECT id FROM emp WHERE id = 1 OR nosuch = 1`,
		`SELECT zz.id FROM emp`,
	} {
		if err := h.execErr(src); !strings.Contains(err.Error(), "unknown column") {
			t.Errorf("%s: err = %v, want unknown column", src, err)
		}
	}
	// The same for a parameter that was not supplied.
	if err := h.execErr(`SELECT id FROM t WHERE v = ?`); !strings.Contains(err.Error(), "missing parameter") {
		t.Errorf("missing parameter on an empty table: %v", err)
	}
}

func TestAmbiguousColumn(t *testing.T) {
	h := newHarness(t)
	h.exec(`CREATE TABLE x (id INT PRIMARY KEY, v INT)`)
	h.exec(`CREATE TABLE y (id INT PRIMARY KEY, v INT)`)
	h.exec(`INSERT INTO x VALUES (1, 1)`)
	h.exec(`INSERT INTO y VALUES (1, 2)`)
	// Unqualified v is ambiguous across x and y.
	h.execErr(`SELECT v FROM x JOIN y ON x.id = y.id`)
	// Also where no row reaches it: a join with no match, a predicate
	// that short-circuits first, an empty table.
	h.exec(`CREATE TABLE z (id INT PRIMARY KEY, v INT)`)
	for _, src := range []string{
		`SELECT v FROM x JOIN y ON x.id = y.id WHERE x.id = 99`,
		`SELECT x.id FROM x JOIN y ON x.id = y.id WHERE x.id = 99 AND v = 1`,
		`SELECT x.id FROM x JOIN y ON x.id = y.id WHERE FALSE AND v = 1`,
		`SELECT x.id FROM x JOIN y ON x.id = y.id ORDER BY v`,
		`SELECT v FROM z JOIN y ON z.id = y.id`,
		`SELECT z.id FROM z JOIN y ON z.id = y.id WHERE v > 0`,
	} {
		if err := h.execErr(src); !strings.Contains(err.Error(), "ambiguous column") {
			t.Errorf("%s: err = %v, want ambiguous column", src, err)
		}
	}
	res := h.query(`SELECT x.v, y.v FROM x JOIN y ON x.id = y.id`)
	if res.Rows[0][0].(int64) != 1 || res.Rows[0][1].(int64) != 2 {
		t.Fatalf("qualified cols = %v", res.Rows[0])
	}
}

func TestPlannerPaths(t *testing.T) {
	h := setupEmployees(t)
	cases := []struct {
		src  string
		want string
	}{
		{`SELECT * FROM emp WHERE id = 3`, "pk-point"},
		{`SELECT * FROM emp WHERE id = ?`, "pk-point"},
		{`SELECT * FROM emp WHERE id > 2`, "pk-range"},
		{`SELECT * FROM emp WHERE id BETWEEN 2 AND 4`, "pk-range"},
		{`SELECT * FROM emp WHERE dept = 'eng'`, "index-eq"},
		{`SELECT * FROM emp WHERE salary > 100`, "full-scan"},
		{`SELECT * FROM emp`, "full-scan"},
		{`SELECT * FROM emp WHERE id = 3 AND salary > 1`, "pk-point"},
		{`SELECT * FROM emp WHERE 3 = id`, "pk-point"},
		{`SELECT * FROM emp WHERE 100 < id`, "pk-range"},
	}
	for _, c := range cases {
		stmt, err := Parse(c.src)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Explain(h.e, stmt, []any{int64(1)})
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(got, c.want) {
			t.Errorf("%s: plan = %q, want %s", c.src, got, c.want)
		}
	}
}

// TestExplainPlans pins the decisions beyond the base table's access
// path: the join strategy, the table at which each conjunct applies
// (early only when no part of the predicate can fail), and how ORDER BY
// and LIMIT are met.
func TestExplainPlans(t *testing.T) {
	h := setupEmployees(t)
	h.exec(`CREATE TABLE ol (order_id INT, line INT, item TEXT, PRIMARY KEY (order_id, line))`)
	h.exec(`CREATE TABLE proj (id INT PRIMARY KEY, lead INT, dept TEXT)`)
	cases := []struct{ src, want string }{
		{`SELECT name FROM emp WHERE id >= 2 ORDER BY id LIMIT 2`, "pk-range on emp where (id >= 2) -> ordered-stop(2)"},
		{`SELECT name FROM emp WHERE id >= 2 ORDER BY id DESC LIMIT 2`, "pk-range on emp where (id >= 2) -> top-n(2)"},
		{`SELECT name FROM emp ORDER BY id`, "full-scan on emp -> ordered"},
		{`SELECT name FROM emp ORDER BY salary`, "full-scan on emp -> sort"},
		{`SELECT name FROM emp ORDER BY salary LIMIT 3 OFFSET 1`, "full-scan on emp -> top-n(4)"},
		{`SELECT name FROM emp LIMIT 3`, "full-scan on emp -> ordered-stop(3)"},
		{`SELECT name FROM emp WHERE dept = 'eng' ORDER BY dept, id LIMIT 5`, "index-eq on emp where (dept = eng) -> ordered-stop(5)"},
		{`SELECT item FROM ol WHERE order_id = 1 ORDER BY line LIMIT 5`, "pk-range on ol where (order_id = 1) -> ordered-stop(5)"},
		{`SELECT item FROM ol ORDER BY order_id LIMIT 5`, "full-scan on ol -> ordered-stop(5)"},
		{`SELECT item FROM ol ORDER BY line LIMIT 5`, "full-scan on ol -> top-n(5)"},
		{`SELECT item FROM ol ORDER BY order_id, item LIMIT 5`, "full-scan on ol -> top-n(5)"},

		{`SELECT MAX(id) FROM emp`, "edge(max) on emp -> group"},
		{`SELECT MIN(order_id) FROM ol`, "edge(min) on ol -> group"},
		{`SELECT MAX(line) FROM ol`, "full-scan on ol -> group"},
		{`SELECT MAX(id) FROM emp WHERE id > 1`, "pk-range on emp where (id > 1) -> group"},
		{`SELECT MAX(id), MIN(id) FROM emp`, "full-scan on emp -> group"},
		{`SELECT dept, COUNT(*) FROM emp GROUP BY dept ORDER BY dept LIMIT 2`, "full-scan on emp -> group -> top-n(2)"},
		{`SELECT dept, COUNT(*) FROM emp GROUP BY dept`, "full-scan on emp -> group"},

		{`SELECT e.name FROM emp e JOIN dept d ON e.dept = d.name WHERE d.city = 'SEA' AND e.salary > 90`,
			"full-scan on emp e where (e.salary > 90) -> pk-probe dept d on e.dept = d.name where (d.city = SEA)"},
		{`SELECT e.name FROM dept d JOIN emp e ON e.dept = d.name WHERE e.salary > 90 AND d.city = 'SEA' ORDER BY d.name LIMIT 4`,
			"full-scan on dept d where (d.city = SEA) -> index-probe emp e on d.name = e.dept where (e.salary > 90) -> ordered-stop(4)"},
		{`SELECT e.name FROM emp e JOIN proj p ON p.lead = e.id WHERE e.salary * 2 > 10 AND e.active AND 1 = 1`,
			"full-scan on emp e where ((e.salary * 2) > 10) and e.active and (1 = 1) -> hash-join proj p on e.id = p.lead"},
		// A division can fail, and so can comparing a string with a number:
		// nothing is applied before the join.
		{`SELECT e.name FROM emp e JOIN proj p ON p.lead = e.id WHERE e.salary / 2 > 10 AND e.active`,
			"full-scan on emp e -> hash-join proj p on e.id = p.lead where ((e.salary / 2) > 10) and e.active"},
		{`SELECT e.name FROM emp e JOIN dept d ON e.dept = d.name WHERE e.salary > 90 AND d.city = 5`,
			"full-scan on emp e -> pk-probe dept d on e.dept = d.name where (e.salary > 90) and (d.city = 5)"},
		{`SELECT e.name FROM emp e JOIN dept d ON e.dept = d.name JOIN proj p ON p.dept = d.name WHERE p.id > 1 AND d.city <> 'SEA' AND e.active`,
			"full-scan on emp e where e.active -> pk-probe dept d on e.dept = d.name where (d.city <> SEA) -> hash-join proj p via pk-range on d.name = p.dept where (p.id > 1)"},
		// A joined table its own conjuncts select through a path is read
		// once, into a hash on the join column — whatever the probe would
		// have been — unless the predicate may fail, the base is one row or
		// the scan stops at its LIMIT.
		{`SELECT e.name FROM proj p JOIN emp e ON p.lead = e.id WHERE e.dept = 'eng'`,
			"full-scan on proj p -> hash-join emp e via index-eq(emp_dept) on p.lead = e.id where (e.dept = eng)"},
		{`SELECT e.name FROM dept d JOIN emp e ON e.dept = d.name WHERE e.id > 2 ORDER BY d.name`,
			"full-scan on dept d -> hash-join emp e via pk-range on d.name = e.dept where (e.id > 2) -> ordered"},
		{`SELECT e.name FROM emp e JOIN proj p ON p.lead = e.id WHERE p.id = 3 ORDER BY e.salary LIMIT 2`,
			"full-scan on emp e -> hash-join proj p via pk-point on e.id = p.lead where (p.id = 3) -> top-n(2)"},
		{`SELECT e.name FROM proj p JOIN emp e ON p.lead = e.id WHERE e.dept = 'eng' AND p.id / 2 > 0`,
			"full-scan on proj p -> pk-probe emp e on p.lead = e.id where (e.dept = eng) and ((p.id / 2) > 0)"},
		{`SELECT e.name FROM emp e JOIN dept d ON e.dept = d.name WHERE e.id = 1 AND d.name = 'eng'`,
			"pk-point on emp e where (e.id = 1) -> pk-probe dept d on e.dept = d.name where (d.name = eng)"},
		{`SELECT e.name FROM emp e JOIN proj p ON p.lead = e.id WHERE p.id > 1 ORDER BY e.id LIMIT 2`,
			"full-scan on emp e -> hash-join proj p on e.id = p.lead where (p.id > 1) -> ordered-stop(2)"},

		{`UPDATE emp SET salary = 1 WHERE dept = 'eng'`, "index-eq on emp where (dept = eng)"},
		{`DELETE FROM emp WHERE id > 3`, "pk-range on emp where (id > 3)"},
		{`INSERT INTO dept VALUES ('ops', 'SFO')`, "insert on dept"},
	}
	for _, c := range cases {
		stmt, err := Parse(c.src)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := Explain(h.e, stmt, nil); err != nil || got != c.want {
			t.Errorf("%s\n\tplan: %s (%v)\n\twant: %s", c.src, got, err, c.want)
		}
	}
}

// TestPlannerPathsAgree verifies that queries return identical results
// regardless of access path, by comparing indexed against forced-full
// scans on random data.
func TestPlannerPathsAgree(t *testing.T) {
	h := newHarness(t)
	h.exec(`CREATE TABLE n (id INT PRIMARY KEY, grp INT, v INT)`)
	h.exec(`CREATE INDEX n_grp ON n (grp)`)
	rng := rand.New(rand.NewSource(5))
	tx := h.e.Begin()
	for i := 0; i < 500; i++ {
		if _, err := Exec(tx, h.e, `INSERT INTO n VALUES (?, ?, ?)`, i, rng.Intn(10), rng.Intn(100)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tx.CommitLocal(); err != nil {
		t.Fatal(err)
	}

	for g := 0; g < 10; g++ {
		indexed := h.query(`SELECT id FROM n WHERE grp = ? ORDER BY id`, g)
		// grp+0 defeats sargability, forcing a full scan.
		full := h.query(`SELECT id FROM n WHERE grp + 0 = ? ORDER BY id`, g)
		if len(indexed.Rows) != len(full.Rows) {
			t.Fatalf("grp=%d: indexed %d rows, full %d rows", g, len(indexed.Rows), len(full.Rows))
		}
		for i := range indexed.Rows {
			if indexed.Rows[i][0] != full.Rows[i][0] {
				t.Fatalf("grp=%d row %d: %v vs %v", g, i, indexed.Rows[i], full.Rows[i])
			}
		}
	}
	for _, probe := range []int{0, 100, 250, 499, 500} {
		point := h.query(`SELECT v FROM n WHERE id = ?`, probe)
		full := h.query(`SELECT v FROM n WHERE id + 0 = ?`, probe)
		if len(point.Rows) != len(full.Rows) {
			t.Fatalf("id=%d: point %d rows, full %d rows", probe, len(point.Rows), len(full.Rows))
		}
	}
}

func TestTableSetExtraction(t *testing.T) {
	cases := []struct {
		src  string
		want string
	}{
		{`SELECT * FROM emp`, "emp"},
		{`SELECT * FROM emp e JOIN dept d ON e.dept = d.name`, "dept,emp"},
		{`INSERT INTO emp (id) VALUES (1)`, "emp"},
		{`UPDATE emp SET salary = 1`, "emp"},
		{`DELETE FROM dept WHERE name = 'x'`, "dept"},
	}
	for _, c := range cases {
		stmt, err := Parse(c.src)
		if err != nil {
			t.Fatal(err)
		}
		got := strings.Join(Tables(stmt), ",")
		if got != c.want {
			t.Errorf("Tables(%q) = %q, want %q", c.src, got, c.want)
		}
	}
}

func TestPrepared(t *testing.T) {
	h := setupEmployees(t)
	p, err := Prepare(`SELECT name FROM emp WHERE id = ?`)
	if err != nil {
		t.Fatal(err)
	}
	if !p.ReadOnly || len(p.TableSet) != 1 || p.TableSet[0] != "emp" {
		t.Fatalf("prepared meta = %+v", p)
	}
	tx := h.e.Begin()
	defer tx.Abort()
	for i := int64(1); i <= 3; i++ {
		res, err := p.Exec(tx, h.e, i)
		if err != nil || len(res.Rows) != 1 {
			t.Fatalf("exec(%d) = %v, %v", i, res, err)
		}
	}
	upd, _ := Prepare(`UPDATE emp SET salary = ? WHERE id = ?`)
	if upd.ReadOnly {
		t.Fatal("UPDATE marked read-only")
	}
}

func TestLikeMatch(t *testing.T) {
	cases := []struct {
		s, p string
		want bool
	}{
		{"hello", "hello", true},
		{"hello", "h%", true},
		{"hello", "%o", true},
		{"hello", "%ell%", true},
		{"hello", "h_llo", true},
		{"hello", "h_lo", false},
		{"hello", "", false},
		{"", "%", true},
		{"abc", "%%", true},
		{"abc", "a%c", true},
		{"abc", "a%b", false},
		{"aXbXc", "a%b%c", true},
	}
	for _, c := range cases {
		if got := likeMatch(c.s, c.p); got != c.want {
			t.Errorf("likeMatch(%q, %q) = %v, want %v", c.s, c.p, got, c.want)
		}
	}
}

// TestQuickLikeVsNaive compares the backtracking matcher against a
// recursive reference implementation.
func TestQuickLikeVsNaive(t *testing.T) {
	var naive func(s, p string) bool
	naive = func(s, p string) bool {
		if p == "" {
			return s == ""
		}
		switch p[0] {
		case '%':
			for i := 0; i <= len(s); i++ {
				if naive(s[i:], p[1:]) {
					return true
				}
			}
			return false
		case '_':
			return s != "" && naive(s[1:], p[1:])
		default:
			return s != "" && s[0] == p[0] && naive(s[1:], p[1:])
		}
	}
	alphabet := []byte("ab%_")
	mk := func(raw []byte, n int) string {
		var b strings.Builder
		for i := 0; i < len(raw) && i < n; i++ {
			b.WriteByte(alphabet[int(raw[i])%len(alphabet)])
		}
		return b.String()
	}
	f := func(sRaw, pRaw []byte) bool {
		s := strings.ReplaceAll(strings.ReplaceAll(mk(sRaw, 8), "%", "a"), "_", "b")
		p := mk(pRaw, 6)
		return likeMatch(s, p) == naive(s, p)
	}
	cfg := &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(31))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotIsolationThroughSQL(t *testing.T) {
	h := setupEmployees(t)
	reader := h.e.Begin()
	h.exec(`UPDATE emp SET salary = 999 WHERE id = 1`)
	res, err := Exec(reader, h.e, `SELECT salary FROM emp WHERE id = 1`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].(float64) != 120.0 {
		t.Fatalf("snapshot read = %v, want 120", res.Rows[0][0])
	}
}

func TestWriteSetFromSQL(t *testing.T) {
	h := setupEmployees(t)
	tx := h.e.Begin()
	if _, err := Exec(tx, h.e, `UPDATE emp SET salary = 1 WHERE dept = 'eng'`); err != nil {
		t.Fatal(err)
	}
	if _, err := Exec(tx, h.e, `DELETE FROM emp WHERE id = 5`); err != nil {
		t.Fatal(err)
	}
	ws := tx.WriteSet()
	if ws.Len() != 3 {
		t.Fatalf("writeset = %v", ws)
	}
	tables := ws.Tables()
	if len(tables) != 1 || tables[0] != "emp" {
		t.Fatalf("tables = %v", tables)
	}
	tx.Abort()
}

func TestArithmeticEdgeCases(t *testing.T) {
	h := setupEmployees(t)
	res := h.query(`SELECT 7 / 2, 7.0 / 2, 3 * 4 + 1, 10 - 2 - 3 FROM emp WHERE id = 1`)
	r := res.Rows[0]
	if r[0].(int64) != 3 {
		t.Errorf("int div = %v", r[0])
	}
	if r[1].(float64) != 3.5 {
		t.Errorf("float div = %v", r[1])
	}
	if r[2].(int64) != 13 {
		t.Errorf("precedence = %v", r[2])
	}
	if r[3].(int64) != 5 {
		t.Errorf("left assoc = %v", r[3])
	}
	tx := h.e.Begin()
	defer tx.Abort()
	if _, err := Exec(tx, h.e, `SELECT 1 / 0 FROM emp WHERE id = 1`); err == nil {
		t.Error("division by zero succeeded")
	}
}

func TestNegativeNumbers(t *testing.T) {
	h := newHarness(t)
	h.exec(`CREATE TABLE t (id INT PRIMARY KEY, v INT)`)
	h.exec(`INSERT INTO t VALUES (-5, -10), (1, 20)`)
	res := h.query(`SELECT v FROM t WHERE id = -5`)
	if len(res.Rows) != 1 || res.Rows[0][0].(int64) != -10 {
		t.Fatalf("rows = %v", res.Rows)
	}
	res = h.query(`SELECT id FROM t ORDER BY id`)
	if res.Rows[0][0].(int64) != -5 {
		t.Fatalf("negative key sorts after positive: %v", res.Rows)
	}
}

func TestCompositePrimaryKey(t *testing.T) {
	h := newHarness(t)
	h.exec(`CREATE TABLE ol (order_id INT, line INT, item TEXT, PRIMARY KEY (order_id, line))`)
	h.exec(`INSERT INTO ol VALUES (1, 1, 'a'), (1, 2, 'b'), (2, 1, 'c')`)
	res := h.query(`SELECT item FROM ol WHERE order_id = 1 ORDER BY line`)
	if len(res.Rows) != 2 || res.Rows[0][0].(string) != "a" {
		t.Fatalf("prefix scan = %v", res.Rows)
	}
	stmt, _ := Parse(`SELECT item FROM ol WHERE order_id = 1 AND line = 2`)
	plan, _ := Explain(h.e, stmt, nil)
	if !strings.HasPrefix(plan, "pk-point") {
		t.Fatalf("full composite key plan = %q", plan)
	}
	stmt, _ = Parse(`SELECT item FROM ol WHERE order_id = 1`)
	plan, _ = Explain(h.e, stmt, nil)
	if !strings.HasPrefix(plan, "pk-range") {
		t.Fatalf("prefix plan = %q", plan)
	}
	// Duplicate composite key must be rejected.
	err := h.execErr(`INSERT INTO ol VALUES (1, 2, 'dup')`)
	if !errors.Is(err, storage.ErrDuplicateKey) {
		t.Fatalf("err = %v", err)
	}
}

func TestVarcharLengthIgnored(t *testing.T) {
	h := newHarness(t)
	h.exec(`CREATE TABLE t (id INT PRIMARY KEY, s VARCHAR(100))`)
	h.exec(`INSERT INTO t VALUES (1, 'hello')`)
	res := h.query(`SELECT s FROM t WHERE id = 1`)
	if res.Rows[0][0].(string) != "hello" {
		t.Fatal("varchar round trip failed")
	}
}

// TestCreateIndexDuringSelect: CREATE INDEX installs a new schema
// instead of editing the one planners already hold, so a SELECT planned
// while indexes are being added reads a consistent index list, and a
// prepared statement shared by two readers replaces the plan it keeps
// as the schema changes under it. Run under -race: the planner reads
// Schema.Indexes with no lock, and readers load the kept plans with
// none.
func TestCreateIndexDuringSelect(t *testing.T) {
	h := newHarness(t)
	h.exec(`CREATE TABLE t (id INT PRIMARY KEY, c0 INT, c1 INT, c2 INT, c3 INT, c4 INT, c5 INT, c6 INT, c7 INT)`)
	h.exec(`INSERT INTO t VALUES (1, 0, 1, 2, 3, 4, 5, 6, 7), (2, 0, 1, 2, 3, 4, 5, 6, 8)`)
	prepared, err := Prepare(`SELECT id FROM t WHERE c7 = ?`)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	errc := make(chan error, 2)
	go func() {
		defer close(done)
		for i := 0; i < 8; i++ {
			tx := h.e.Begin()
			_, err := Exec(tx, h.e, fmt.Sprintf(`CREATE INDEX t_c%d ON t (c%d)`, i, i))
			tx.Abort()
			if err != nil {
				errc <- err
				return
			}
		}
	}()
	read := func(prep bool) error {
		tx := h.e.Begin()
		defer tx.Abort()
		var res *Result
		var err error
		if prep {
			res, err = prepared.Exec(tx, h.e, 7)
		} else {
			res, err = Exec(tx, h.e, `SELECT id FROM t WHERE c7 = ?`, 7)
		}
		if err == nil && (len(res.Rows) != 1 || res.Rows[0][0] != int64(1)) {
			err = fmt.Errorf("rows = %v, want [[1]]", res.Rows)
		}
		return err
	}
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-done:
				return
			default:
			}
			if err := read(true); err != nil {
				errc <- err
				return
			}
		}
	}()
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		for _, prep := range []bool{false, true} {
			if err := read(prep); err != nil {
				t.Fatal(err)
			}
		}
	}
	<-readerDone
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
	if plan, _ := prepared.Explain(h.e, 7); !strings.HasPrefix(plan, "index-eq on t") {
		t.Fatalf("after the last CREATE INDEX the prepared plan is %q, want an index-eq read", plan)
	}
	if s, _ := h.e.Schema("t"); len(s.Indexes) != 8 {
		t.Fatalf("schema lists %d indexes, want 8", len(s.Indexes))
	}
}
