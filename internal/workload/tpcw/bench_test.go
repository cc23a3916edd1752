package tpcw

import (
	"testing"

	"sconrep/internal/sql"
	"sconrep/internal/storage"
)

// BenchmarkTPCWStatements times the stand-in DBMS alone — one engine,
// one snapshot transaction per execution, no replication — on the read
// statements that carry the tpcw-durable profile (joins, ORDER BY …
// LIMIT, GROUP BY, MAX of the key) and on one point read for scale.
// Parameters are drawn as the interactions draw them, at DefaultScale.
func BenchmarkTPCWStatements(b *testing.B) {
	s := DefaultScale()
	e := storage.NewEngine()
	if err := Load(e, s); err != nil {
		b.Fatal(err)
	}
	x := NewCtx(s, 0, 1)
	floor := int64(s.orders() * 7 / 10)
	cases := []struct {
		name   string
		st     *sql.Prepared
		params func() []any
	}{
		{"BestSellers", stBestSellers, func() []any { return []any{floor, x.randSubject()} }},
		{"SearchAuthor", stSearchAuthor, func() []any {
			return []any{AuthorLastName(1 + x.Rng.Intn(s.authors()))[:9] + "%"}
		}},
		{"PromoItems", stPromoItems, func() []any { return []any{x.randItem()} }},
		{"MaxOrderID", stMaxOrderID, func() []any { return nil }},
		{"AdminRelated", stAdminRelated, func() []any { return []any{floor} }},
		{"SearchTitle", stSearchTitle, func() []any { return []any{"title_0%"} }},
		{"NewProducts", stNewProducts, func() []any { return []any{x.randSubject()} }},
		{"GetCustomerByID", stGetCustomerByID, func() []any { return []any{x.randCustomer()} }},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tx := e.Begin()
				res, err := c.st.Exec(tx, e, c.params()...)
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Rows) == 0 {
					b.Fatalf("%s returned no rows", c.name)
				}
				tx.Abort()
			}
		})
	}
}
