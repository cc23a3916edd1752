package sql

import (
	"fmt"
	"strings"
	"testing"

	"sconrep/internal/storage"
)

// kvEngine is an engine holding kv(k INT PRIMARY KEY, v TEXT, n INT)
// with rows k = 0..9.
func kvEngine(t testing.TB) *storage.Engine {
	t.Helper()
	e := storage.NewEngine()
	for _, src := range []string{
		`CREATE TABLE kv (k INT PRIMARY KEY, v TEXT, n INT)`,
		`INSERT INTO kv VALUES (0, 'a', 0), (1, 'b', 1), (2, 'c', 2), (3, 'd', 3), (4, 'e', 4), (5, 'f', 5), (6, 'g', 6), (7, 'h', 7), (8, 'i', 8), (9, 'j', 9)`,
	} {
		tx := e.Begin()
		if _, err := Exec(tx, e, src); err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if _, err := tx.CommitLocal(); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// keptPlan returns the plan p keeps for e, or nil.
func keptPlan(p *Prepared, e *storage.Engine) plan {
	if k := p.kept.Load(); k != nil && k.engine == e.ID() {
		return k.plan
	}
	return nil
}

// TestPreparedPlanFollowsCreateIndex: a kept plan is bound to the
// schemas it was planned against. CREATE INDEX installs a new schema, so
// the next execution plans afresh and reads through the index — a
// SELECT's Explain names it, and an UPDATE's and a point SELECT's find
// it by equality.
func TestPreparedPlanFollowsCreateIndex(t *testing.T) {
	e := kvEngine(t)
	for _, tc := range []struct {
		src           string
		param         any
		before, after string
		rows          [][]any // nil for the UPDATE, which affects one row
	}{
		{`SELECT k FROM kv WHERE v <> ? ORDER BY n LIMIT 2`, "a", "full-scan on kv", "index-order(kv_n) on kv", [][]any{{int64(1)}, {int64(2)}}},
		{`SELECT k FROM kv WHERE n = ?`, int64(7), "full-scan on kv", "index-eq on kv", [][]any{{int64(7)}}},
		{`UPDATE kv SET v = 'x' WHERE n = ?`, int64(7), "full-scan on kv", "index-eq on kv", nil},
	} {
		p, _ := Prepare(tc.src)
		run := func(want string) {
			t.Helper()
			tx := e.Begin()
			res, err := p.Exec(tx, e, tc.param)
			tx.Abort()
			switch {
			case err != nil:
				t.Fatalf("%s: %v", tc.src, err)
			case tc.rows != nil && fmt.Sprint(res.Rows) != fmt.Sprint(tc.rows):
				t.Fatalf("%s: rows %v, want %v", tc.src, res.Rows, tc.rows)
			case tc.rows == nil && res.Affected != 1:
				t.Fatalf("%s: %d rows affected, want 1", tc.src, res.Affected)
			}
			if plan, err := p.Explain(e, tc.param); err != nil || !strings.HasPrefix(plan, want) {
				t.Fatalf("%s: plan %q (%v), want it to start %q", tc.src, plan, err, want)
			}
		}
		run(tc.before)
		tx := e.Begin()
		if _, err := Exec(tx, e, `CREATE INDEX kv_n ON kv (n)`); err != nil {
			t.Fatal(err)
		}
		tx.Abort()
		run(tc.after)
		e = kvEngine(t) // the next case starts without the index
	}
}

// TestPreparedKeepsPlanPerEngine: executions whose parameters make the
// same choices reuse the plan kept for their engine; one that flips a
// choice (a NULL where an integer was, which is no longer sargable)
// replaces it, and so does flipping back. A Prepared keeps one plan:
// an execution on another engine plans afresh and takes the slot, and
// the first engine then plans afresh in turn. An execution with too few
// parameters gets the error planning gives it.
func TestPreparedKeepsPlanPerEngine(t *testing.T) {
	e1, e2 := kvEngine(t), kvEngine(t)
	p, _ := Prepare(`SELECT v FROM kv WHERE k = ?`)
	exec := func(e *storage.Engine, param any, wantRows int) plan {
		t.Helper()
		tx := e.Begin()
		defer tx.Abort()
		res, err := p.Exec(tx, e, param)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != wantRows {
			t.Fatalf("k = %v: %d rows, want %d", param, len(res.Rows), wantRows)
		}
		return keptPlan(p, e)
	}
	first := exec(e1, int64(1), 1)
	if first == nil {
		t.Fatal("no plan kept")
	}
	if again := exec(e1, int64(2), 1); again != first {
		t.Fatal("a second point read planned afresh")
	}
	null := exec(e1, nil, 0)
	if null == first {
		t.Fatal("k = NULL ran the point plan")
	}
	if plan, _ := p.Explain(e1, nil); !strings.HasPrefix(plan, "full-scan") {
		t.Fatalf("k = NULL plan %q, want a full scan", plan)
	}
	back := exec(e1, int64(6), 1)
	if back == null || back == first {
		t.Fatal("k = 6 after k = NULL did not plan afresh")
	}
	other := exec(e2, int64(3), 1)
	if other == nil || other == back {
		t.Fatal("the second engine ran the first engine's plan")
	}
	if keptPlan(p, e1) != nil {
		t.Fatal("the first engine's plan is still kept after the second engine replanned")
	}
	if exec(e2, int64(7), 1) != other {
		t.Fatal("the second engine replanned a plan it keeps")
	}
	if again := exec(e1, int64(4), 1); again == nil || again == back || again == other {
		t.Fatal("the first engine did not plan afresh and take the slot back")
	}
	// Too few parameters is the fresh plan's error, not a kept plan's
	// read past the end of them.
	tx := e2.Begin()
	defer tx.Abort()
	if _, err := p.Exec(tx, e2); err == nil || !strings.Contains(err.Error(), "missing parameter") {
		t.Fatalf("no parameters: %v, want a missing parameter", err)
	}
}

// TestExecPreparedAllocs bounds what a cached point SELECT and a cached
// point UPDATE allocate per execution, transaction included.
func TestExecPreparedAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	e := kvEngine(t)
	for _, tc := range []struct {
		name, src string
		params    []any
		max       float64
	}{
		{"point-select", `SELECT v FROM kv WHERE k = ?`, []any{int64(3)}, 6},
		{"point-update", `UPDATE kv SET n = n + 1 WHERE k = ?`, []any{int64(3)}, 17},
	} {
		p, _ := Prepare(tc.src)
		run := func() {
			tx := e.Begin()
			if _, err := p.Exec(tx, e, tc.params...); err != nil {
				t.Fatal(err)
			}
			tx.Abort()
		}
		run() // plans and keeps the plan
		if got := testing.AllocsPerRun(200, run); got > tc.max {
			t.Errorf("%s: %.1f allocations per execution, want at most %.0f", tc.name, got, tc.max)
		} else {
			t.Logf("%s: %.1f allocations per execution", tc.name, got)
		}
	}
}

// BenchmarkExecPrepared measures one execution of a cached prepared
// statement, in a transaction of its own.
func BenchmarkExecPrepared(b *testing.B) {
	e := kvEngine(b)
	for _, tc := range []struct{ name, src string }{
		{"point-select", `SELECT v FROM kv WHERE k = ?`},
		{"point-update", `UPDATE kv SET n = n + 1 WHERE k = ?`},
	} {
		p, _ := Prepare(tc.src)
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tx := e.Begin()
				if _, err := p.Exec(tx, e, int64(i%10)); err != nil {
					b.Fatal(err)
				}
				tx.Abort()
			}
		})
	}
}
