package tpcw

import (
	"testing"

	"sconrep/internal/sql"
	"sconrep/internal/storage"
)

// grownOrders is how many runtime orders the *Grown cases of
// BenchmarkTPCWStatements append before they are timed: about what a
// tpcw-durable run of a few seconds commits.
const grownOrders = 2000

// BenchmarkTPCWStatements times the stand-in DBMS alone — one engine,
// one snapshot transaction per execution, no replication — on the read
// statements that carry the tpcw-durable profile (joins, ORDER BY …
// LIMIT, GROUP BY, MAX of the key) and on one point read for scale.
// Parameters are drawn as the interactions draw them, at DefaultScale.
// The *Grown cases run on a second engine that has also taken
// grownOrders purchases, as a live run's order_line has: every one of
// their lines lies above the BestSellers / AdminConfirm floor.
// SearchTitleNone searches for a title prefix no item has: the index walk
// behind SearchTitle reads every entry and returns nothing.
// SearchAuthorNone searches for an author no item has: the join walk
// behind SearchAuthor reads every title and probes its author.
func BenchmarkTPCWStatements(b *testing.B) {
	s := DefaultScale()
	e, grown := statementEngines(b, s)
	x := NewCtx(s, 0, 1)
	floor := int64(s.orders() * 7 / 10)
	bestSellers := func() []any { return []any{floor, x.randSubject()} }
	adminRelated := func() []any { return []any{floor} }
	cases := []struct {
		name   string
		e      *storage.Engine
		st     *sql.Prepared
		params func() []any
		none   bool // the statement matches no row
	}{
		{"BestSellers", e, stBestSellers, bestSellers, false},
		{"BestSellersGrown", grown, stBestSellers, bestSellers, false},
		{"SearchAuthor", e, stSearchAuthor, func() []any {
			return []any{AuthorLastName(1 + x.Rng.Intn(s.authors()))[:9] + "%"}
		}, false},
		{"SearchAuthorNone", e, stSearchAuthor, func() []any { return []any{"zzz%"} }, true},
		{"PromoItems", e, stPromoItems, func() []any { return []any{x.randItem()} }, false},
		{"MaxOrderID", e, stMaxOrderID, func() []any { return nil }, false},
		{"AdminRelated", e, stAdminRelated, adminRelated, false},
		{"AdminRelatedGrown", grown, stAdminRelated, adminRelated, false},
		{"SearchTitle", e, stSearchTitle, func() []any { return []any{"title_0%"} }, false},
		{"SearchTitleNone", e, stSearchTitle, func() []any { return []any{"title_9%"} }, true},
		{"NewProducts", e, stNewProducts, func() []any { return []any{x.randSubject()} }, false},
		{"GetCustomerByID", e, stGetCustomerByID, func() []any { return []any{x.randCustomer()} }, false},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tx := c.e.Begin()
				res, err := c.st.Exec(tx, c.e, c.params()...)
				if err != nil {
					b.Fatal(err)
				}
				if (len(res.Rows) == 0) != c.none {
					b.Fatalf("%s returned %d rows", c.name, len(res.Rows))
				}
				tx.Abort()
			}
		})
	}
}

// statementEngines loads the two engines the statement benchmarks and
// allocation ceilings run on: one at scale s, and one that has also
// taken grownOrders purchases.
func statementEngines(tb testing.TB, s Scale) (e, grown *storage.Engine) {
	tb.Helper()
	e, grown = storage.NewEngine(), storage.NewEngine()
	for _, en := range []*storage.Engine{e, grown} {
		if err := Load(en, s); err != nil {
			tb.Fatal(err)
		}
	}
	appendOrders(tb, grown, s, grownOrders)
	return e, grown
}

// TestTPCWStatementAllocs bounds what three statements of the
// tpcw-durable profile allocate per execution at DefaultScale,
// transaction included: SearchAuthor (a join walk), and BestSellers and
// AdminRelated after grownOrders purchases (a hash build and keyed fetch
// feeding a group, and a group over every recent order line), whose
// builds, groups and buffers the plan's pooled run keeps from one
// execution to the next. Most of what is left is the result: one slice
// per output row.
func TestTPCWStatementAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	s := DefaultScale()
	e, grown := statementEngines(t, s)
	floor := int64(s.orders() * 7 / 10)
	for _, tc := range []struct {
		name   string
		e      *storage.Engine
		st     *sql.Prepared
		params []any
		max    float64
	}{
		{"SearchAuthor", e, stSearchAuthor, []any{AuthorLastName(7)[:9] + "%"}, 59},
		{"BestSellersGrown", grown, stBestSellers, []any{floor, subjects[3]}, 239},
		{"AdminRelatedGrown", grown, stAdminRelated, []any{floor}, 1085},
	} {
		run := func() {
			tx := tc.e.Begin()
			if _, err := tc.st.Exec(tx, tc.e, tc.params...); err != nil {
				t.Fatal(err)
			}
			tx.Abort()
		}
		run() // plans and keeps the plan, and pools a run
		if got := testing.AllocsPerRun(50, run); got > tc.max {
			t.Errorf("%s: %.1f allocations per execution, want at most %.0f", tc.name, got, tc.max)
		} else {
			t.Logf("%s: %.1f allocations per execution", tc.name, got)
		}
	}
}

// appendOrders commits n purchases the way BuyConfirm writes them: an
// order with an id from a browser's range above OrderIDBase and one to
// three lines of random items.
func appendOrders(tb testing.TB, e *storage.Engine, s Scale, n int) {
	x := NewCtx(s, 0, 2)
	tx := e.Begin()
	exec := func(st *sql.Prepared, params ...any) {
		if _, err := st.Exec(tx, e, params...); err != nil {
			tb.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		x.nextOrderID++
		oid := x.nextOrderID
		date := int64(13100 + x.Rng.Intn(10))
		addr := int64(1 + x.Rng.Intn(s.addresses()))
		exec(stInsertOrder, oid, x.randCustomer(), date, 30.0, 2.5, 36.5,
			shipTypes[x.Rng.Intn(len(shipTypes))], date+int64(x.Rng.Intn(7)), addr, addr, "PENDING")
		for line, lines := int64(1), int64(1+x.Rng.Intn(3)); line <= lines; line++ {
			exec(stInsertOL, oid, line, x.randItem(), int64(1+x.Rng.Intn(4)), 0.0, "buy")
		}
	}
	if _, err := tx.CommitLocal(); err != nil {
		tb.Fatal(err)
	}
}
