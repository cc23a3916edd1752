package tpcw

import (
	"testing"

	"sconrep/internal/sql"
	"sconrep/internal/storage"
)

// TestStatementPlans pins the plan of every prepared statement with the
// parameter types the interactions pass: which access path and join
// strategy each table gets, where each conjunct of WHERE is applied, and
// how ORDER BY … LIMIT is met. A statement that falls back to a full
// scan where it had an index, to filtering after the join where it
// filtered before, or to sorting everything where it stopped early or
// kept a top-n, fails here rather than showing up as a slower benchmark.
func TestStatementPlans(t *testing.T) {
	e := storage.NewEngine()
	if err := Load(e, smallScale()); err != nil {
		t.Fatal(err)
	}
	const i, f, s = int64(1), 1.5, "x"
	cases := []struct {
		st     *sql.Prepared
		params []any
		want   string
	}{
		{stGetCustomerByID, []any{i}, "pk-point on customer where (c_id = ?)"},
		{stGetCustomerUname, []any{s}, "index-eq on customer where (c_uname = ?)"},
		{stPromoItems, []any{i}, "pk-range on item where (i_id >= ?) -> ordered-stop(5)"},
		{stNewProducts, []any{s}, "index-eq on item i where (i.i_subject = ?) -> pk-probe author a on i.i_a_id = a.a_id -> top-n(50)"},
		{stBestSellers, []any{i, s}, "pk-range on order_line ol keyed-fetch(order_line_item) where (ol.ol_o_id > ?) -> hash-join item i via index-eq(item_subject) on ol.ol_i_id = i.i_id where (i.i_subject = ?) -> group -> top-n(50)"},
		{stProductDetail, []any{i}, "pk-point on item i where (i.i_id = ?) -> pk-probe author a on i.i_a_id = a.a_id"},
		{stSearchAuthor, []any{s}, "full-scan on author a where (a.a_lname LIKE ?) -> index-probe item i on a.a_id = i.i_a_id -> top-n(50)"},
		{stSearchTitle, []any{s}, "index-order(item_title) on item i where (i.i_title LIKE ?) -> ordered-stop(50)"},
		{stSearchSubject, []any{s}, "index-eq on item i where (i.i_subject = ?) -> top-n(50)"},

		{stGetCart, []any{i}, "pk-point on shopping_cart where (sc_id = ?)"},
		{stCreateCart, []any{i, i}, "insert on shopping_cart"},
		{stTouchCart, []any{i, i}, "pk-point on shopping_cart where (sc_id = ?)"},
		{stGetCartLine, []any{i, i}, "pk-point on shopping_cart_line where (scl_sc_id = ?) and (scl_i_id = ?)"},
		{stAddCartLine, []any{i, i, i}, "insert on shopping_cart_line"},
		{stSetCartLine, []any{i, i, i}, "pk-point on shopping_cart_line where (scl_sc_id = ?) and (scl_i_id = ?)"},
		{stDelCartLine, []any{i}, "pk-range on shopping_cart_line where (scl_sc_id = ?)"},
		{stCartLines, []any{i}, "pk-range on shopping_cart_line scl where (scl.scl_sc_id = ?) -> pk-probe item i on scl.scl_i_id = i.i_id"},

		{stInsertCustomer, []any{i, s, s, s, s, i, s, s, i, i, i, i, f, f, f, i, s}, "insert on customer"},

		{stMaxOrderID, nil, "edge(max) on orders -> group"},
		{stInsertOrder, []any{i, i, i, f, f, f, s, i, i, i, s}, "insert on orders"},
		{stInsertOL, []any{i, i, i, i, f, s}, "insert on order_line"},
		{stInsertCC, []any{i, s, s, s, i, s, f, i, i}, "insert on cc_xacts"},
		{stItemStock, []any{i}, "pk-point on item where (i_id = ?)"},
		{stUpdateStock, []any{i, i}, "pk-point on item where (i_id = ?)"},

		{stLastOrder, []any{i}, "index-eq on orders where (o_c_id = ?) -> top-n(1)"},
		{stOrderLines, []any{i}, "pk-range on order_line ol where (ol.ol_o_id = ?) -> pk-probe item i on ol.ol_i_id = i.i_id"},
		{stOrderAddress, []any{i}, "pk-point on address a where (a.addr_id = ?) -> pk-probe country co on a.addr_co_id = co.co_id"},

		{stAdminRelated, []any{i}, "pk-range on order_line ol where (ol.ol_o_id > ?) -> group -> top-n(5)"},
		{stAdminUpdate, []any{f, s, s, i, i, i, i, i, i, i}, "pk-point on item where (i_id = ?)"},
	}
	pinned := make(map[*sql.Prepared]bool, len(cases))
	for _, c := range cases {
		pinned[c.st] = true
		got, err := sql.Explain(e, c.st.Stmt, c.params)
		if err != nil {
			t.Errorf("%s: %v", c.st.SQL, err)
		} else if got != c.want {
			t.Errorf("%s\n\tplan: %s\n\twant: %s", c.st.SQL, got, c.want)
		}
	}
	for name, stmts := range TxnNames {
		for _, st := range stmts {
			if !pinned[st] {
				t.Errorf("%s: no plan pinned for %q", name, st.SQL)
			}
		}
	}
}
