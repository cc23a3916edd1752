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
func BenchmarkTPCWStatements(b *testing.B) {
	s := DefaultScale()
	e := storage.NewEngine()
	if err := Load(e, s); err != nil {
		b.Fatal(err)
	}
	grown := storage.NewEngine()
	if err := Load(grown, s); err != nil {
		b.Fatal(err)
	}
	appendOrders(b, grown, s, grownOrders)
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

// appendOrders commits n purchases the way BuyConfirm writes them: an
// order with an id from a browser's range above OrderIDBase and one to
// three lines of random items.
func appendOrders(b *testing.B, e *storage.Engine, s Scale, n int) {
	x := NewCtx(s, 0, 2)
	tx := e.Begin()
	exec := func(st *sql.Prepared, params ...any) {
		if _, err := st.Exec(tx, e, params...); err != nil {
			b.Fatal(err)
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
		b.Fatal(err)
	}
}
