package tpcw

import (
	"errors"
	"fmt"
	"math/rand"

	"sconrep/internal/cluster"
	"sconrep/internal/sql"
)

// Statements used by the TPC-W transactions. Each web interaction's
// database work is one transaction; the set of prepared statements per
// transaction defines its static table-set (the fine-grained mode's
// workload information).
var (
	stGetCustomerByID, _  = sql.Prepare(`SELECT c_fname, c_lname, c_discount FROM customer WHERE c_id = ?`)
	stGetCustomerUname, _ = sql.Prepare(`SELECT c_id, c_passwd, c_discount, c_addr_id FROM customer WHERE c_uname = ?`)
	stPromoItems, _       = sql.Prepare(`SELECT i_id, i_title, i_thumbnail FROM item WHERE i_id >= ? ORDER BY i_id LIMIT 5`)
	stNewProducts, _      = sql.Prepare(`SELECT i.i_id, i.i_title, a.a_fname, a.a_lname, i.i_pub_date
		FROM item i JOIN author a ON i.i_a_id = a.a_id
		WHERE i.i_subject = ?
		ORDER BY i.i_pub_date DESC, i.i_title LIMIT 50`)
	stBestSellers, _ = sql.Prepare(`SELECT i.i_id, i.i_title, SUM(ol.ol_qty) AS total_qty
		FROM order_line ol JOIN item i ON ol.ol_i_id = i.i_id
		WHERE ol.ol_o_id > ? AND i.i_subject = ?
		GROUP BY i.i_id, i.i_title
		ORDER BY total_qty DESC LIMIT 50`)
	stProductDetail, _ = sql.Prepare(`SELECT i.i_title, i.i_srp, i.i_cost, i.i_desc, i.i_stock, a.a_fname, a.a_lname
		FROM item i JOIN author a ON i.i_a_id = a.a_id
		WHERE i.i_id = ?`)
	stSearchAuthor, _ = sql.Prepare(`SELECT i.i_id, i.i_title, a.a_lname
		FROM author a JOIN item i ON i.i_a_id = a.a_id
		WHERE a.a_lname LIKE ? ORDER BY i.i_title LIMIT 50`)
	stSearchTitle, _ = sql.Prepare(`SELECT i.i_id, i.i_title
		FROM item i WHERE i.i_title LIKE ? ORDER BY i.i_title LIMIT 50`)
	stSearchSubject, _ = sql.Prepare(`SELECT i.i_id, i.i_title
		FROM item i WHERE i.i_subject = ? ORDER BY i.i_title LIMIT 50`)

	stGetCart, _     = sql.Prepare(`SELECT sc_id, sc_time FROM shopping_cart WHERE sc_id = ?`)
	stCreateCart, _  = sql.Prepare(`INSERT INTO shopping_cart (sc_id, sc_time) VALUES (?, ?)`)
	stTouchCart, _   = sql.Prepare(`UPDATE shopping_cart SET sc_time = ? WHERE sc_id = ?`)
	stGetCartLine, _ = sql.Prepare(`SELECT scl_qty FROM shopping_cart_line WHERE scl_sc_id = ? AND scl_i_id = ?`)
	stAddCartLine, _ = sql.Prepare(`INSERT INTO shopping_cart_line (scl_sc_id, scl_i_id, scl_qty) VALUES (?, ?, ?)`)
	stSetCartLine, _ = sql.Prepare(`UPDATE shopping_cart_line SET scl_qty = ? WHERE scl_sc_id = ? AND scl_i_id = ?`)
	stDelCartLine, _ = sql.Prepare(`DELETE FROM shopping_cart_line WHERE scl_sc_id = ?`)
	stCartLines, _   = sql.Prepare(`SELECT scl.scl_i_id, scl.scl_qty, i.i_cost, i.i_title
		FROM shopping_cart_line scl JOIN item i ON scl.scl_i_id = i.i_id
		WHERE scl.scl_sc_id = ?`)

	stInsertCustomer, _ = sql.Prepare(`INSERT INTO customer
		(c_id, c_uname, c_passwd, c_fname, c_lname, c_addr_id, c_phone, c_email,
		 c_since, c_last_login, c_login, c_expiration, c_discount, c_balance, c_ytd_pmt, c_birthdate, c_data)
		VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)`)

	stMaxOrderID, _  = sql.Prepare(`SELECT MAX(o_id) FROM orders`)
	stInsertOrder, _ = sql.Prepare(`INSERT INTO orders
		(o_id, o_c_id, o_date, o_sub_total, o_tax, o_total, o_ship_type, o_ship_date, o_bill_addr_id, o_ship_addr_id, o_status)
		VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)`)
	stInsertOL, _ = sql.Prepare(`INSERT INTO order_line
		(ol_o_id, ol_id, ol_i_id, ol_qty, ol_discount, ol_comments)
		VALUES (?, ?, ?, ?, ?, ?)`)
	stInsertCC, _ = sql.Prepare(`INSERT INTO cc_xacts
		(cx_o_id, cx_type, cx_num, cx_name, cx_expire, cx_auth_id, cx_xact_amt, cx_xact_date, cx_co_id)
		VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)`)
	stItemStock, _   = sql.Prepare(`SELECT i_stock FROM item WHERE i_id = ?`)
	stUpdateStock, _ = sql.Prepare(`UPDATE item SET i_stock = ? WHERE i_id = ?`)

	stLastOrder, _ = sql.Prepare(`SELECT o_id, o_date, o_total, o_status, o_ship_addr_id
		FROM orders WHERE o_c_id = ? ORDER BY o_id DESC LIMIT 1`)
	stOrderLines, _ = sql.Prepare(`SELECT ol.ol_i_id, i.i_title, ol.ol_qty, ol.ol_discount
		FROM order_line ol JOIN item i ON ol.ol_i_id = i.i_id
		WHERE ol.ol_o_id = ?`)
	stOrderAddress, _ = sql.Prepare(`SELECT a.addr_street1, a.addr_city, co.co_name
		FROM address a JOIN country co ON a.addr_co_id = co.co_id
		WHERE a.addr_id = ?`)

	stAdminRelated, _ = sql.Prepare(`SELECT ol.ol_i_id, SUM(ol.ol_qty) AS qty
		FROM order_line ol
		WHERE ol.ol_o_id > ?
		GROUP BY ol.ol_i_id ORDER BY qty DESC LIMIT 5`)
	stAdminUpdate, _ = sql.Prepare(`UPDATE item
		SET i_cost = ?, i_image = ?, i_thumbnail = ?, i_pub_date = ?,
		    i_related1 = ?, i_related2 = ?, i_related3 = ?, i_related4 = ?, i_related5 = ?
		WHERE i_id = ?`)
)

// TxnNames maps each transaction identifier to the prepared statements
// it may execute; RegisterAll feeds these to the cluster so the load
// balancer knows every table-set.
var TxnNames = map[string][]*sql.Prepared{
	"tpcw.home":          {stGetCustomerByID, stPromoItems},
	"tpcw.newProducts":   {stNewProducts},
	"tpcw.bestSellers":   {stBestSellers},
	"tpcw.productDetail": {stProductDetail},
	"tpcw.searchAuthor":  {stSearchAuthor},
	"tpcw.searchTitle":   {stSearchTitle},
	"tpcw.searchSubject": {stSearchSubject},
	"tpcw.orderDisplay":  {stGetCustomerUname, stLastOrder, stOrderLines, stOrderAddress},
	"tpcw.shoppingCart":  {stGetCart, stCreateCart, stTouchCart, stGetCartLine, stAddCartLine, stSetCartLine, stPromoItems},
	"tpcw.register":      {stInsertCustomer, stGetCustomerByID},
	"tpcw.buyConfirm":    {stGetCustomerByID, stCartLines, stMaxOrderID, stInsertOrder, stInsertOL, stInsertCC, stItemStock, stUpdateStock, stDelCartLine},
	"tpcw.adminConfirm":  {stAdminRelated, stAdminUpdate, stProductDetail},
}

// ShardCount is the certification shard count the TPC-W shard map below
// is laid out for.
const ShardCount = 4

// ShardMap assigns each TPC-W table to a certification shard, grouping
// tables the same transactions write so the common paths stay
// single-shard: customer data (0), the catalog (1), order history (2),
// and shopping carts (3). Feed it to cluster.Config.ShardTables or
// sconrepd -shard-tables.
var ShardMap = map[string]int{
	"customer": 0,
	"address":  0,
	"country":  0,

	"item":   1,
	"author": 1,

	"orders":     2,
	"order_line": 2,
	"cc_xacts":   2,

	"shopping_cart":      3,
	"shopping_cart_line": 3,
}

// CrossShardTxns lists the TxnNames entries whose table-sets span more
// than one shard under ShardMap; they certify through the cross-shard
// reserve/seal handshake. Every other transaction is single-shard.
// sconrep-vet checks this list against TxnNames and ShardMap.
var CrossShardTxns = []string{
	"tpcw.adminConfirm",
	"tpcw.bestSellers",
	"tpcw.buyConfirm",
	"tpcw.home",
	"tpcw.orderDisplay",
	"tpcw.shoppingCart",
}

// RegisterAll registers every TPC-W transaction's table-set with the
// cluster's load balancer.
func RegisterAll(c *cluster.Cluster) {
	// Registration into the balancer's per-name registry commutes.
	// det:order-insensitive
	for name, stmts := range TxnNames {
		c.RegisterTxn(name, stmts...)
	}
}

// Ctx carries one emulated browser's identity and private ID spaces.
type Ctx struct {
	Scale Scale
	Rng   *rand.Rand
	// CustomerID is the browser's logged-in customer.
	CustomerID int
	// cartID is the browser's current shopping cart (0 = none yet).
	cartID int64
	// nextCartID allocates collision-free cart IDs per browser.
	nextCartID int64
	// nextCustomerID allocates collision-free customer IDs for
	// registrations.
	nextCustomerID int64
	// nextOrderID allocates collision-free order IDs, emulating the
	// database sequence the original benchmark relies on.
	nextOrderID int64
	browserID   int
}

// NewCtx builds a browser context. browserID must be unique per
// concurrent browser.
func NewCtx(s Scale, browserID int, seed int64) *Ctx {
	return &Ctx{
		Scale:          s,
		Rng:            rand.New(rand.NewSource(seed)),
		CustomerID:     1 + int(seed%int64(s.Customers)),
		browserID:      browserID,
		nextCartID:     CartIDBase + int64(browserID)<<20,
		nextCustomerID: int64(s.Customers) + 1 + int64(browserID)<<20,
		nextOrderID:    OrderIDBase + int64(browserID)<<20,
	}
}

func (x *Ctx) randItem() int64     { return int64(1 + x.Rng.Intn(x.Scale.Items)) }
func (x *Ctx) randCustomer() int64 { return int64(1 + x.Rng.Intn(x.Scale.Customers)) }
func (x *Ctx) randSubject() string { return subjects[x.Rng.Intn(len(subjects))] }

// errShaped wraps a client-visible failure with the interaction name.
func errShaped(name string, err error) error {
	return fmt.Errorf("tpcw %s: %w", name, err)
}

// rowErr is the failure of a read that must return a row: the read's
// own error kept in the chain (an abort must stay recognisable as
// one), or the missing row.
func rowErr(what string, err error) error {
	if err == nil {
		return fmt.Errorf("%s read: no row", what)
	}
	return fmt.Errorf("%s read: %w", what, err)
}

// Home models the Home interaction: customer greeting plus promotional
// items.
func Home(s *cluster.Session, x *Ctx) error {
	tx, err := s.Begin("tpcw.home")
	if err != nil {
		return errShaped("home", err)
	}
	if _, err := tx.Exec(stGetCustomerByID, int64(x.CustomerID)); err != nil {
		tx.Abort()
		return errShaped("home", err)
	}
	if _, err := tx.Exec(stPromoItems, x.randItem()); err != nil {
		tx.Abort()
		return errShaped("home", err)
	}
	_, err = tx.Commit()
	return err
}

// NewProducts lists recent items in a random subject.
func NewProducts(s *cluster.Session, x *Ctx) error {
	tx, err := s.Begin("tpcw.newProducts")
	if err != nil {
		return errShaped("newProducts", err)
	}
	if _, err := tx.Exec(stNewProducts, x.randSubject()); err != nil {
		tx.Abort()
		return errShaped("newProducts", err)
	}
	_, err = tx.Commit()
	return err
}

// BestSellers aggregates recent order lines per item in a subject.
func BestSellers(s *cluster.Session, x *Ctx) error {
	tx, err := s.Begin("tpcw.bestSellers")
	if err != nil {
		return errShaped("bestSellers", err)
	}
	// "Recent" = the last ~30% of preloaded orders.
	floor := int64(x.Scale.orders() * 7 / 10)
	if _, err := tx.Exec(stBestSellers, floor, x.randSubject()); err != nil {
		tx.Abort()
		return errShaped("bestSellers", err)
	}
	_, err = tx.Commit()
	return err
}

// ProductDetail reads one item with its author.
func ProductDetail(s *cluster.Session, x *Ctx) error {
	tx, err := s.Begin("tpcw.productDetail")
	if err != nil {
		return errShaped("productDetail", err)
	}
	if _, err := tx.Exec(stProductDetail, x.randItem()); err != nil {
		tx.Abort()
		return errShaped("productDetail", err)
	}
	_, err = tx.Commit()
	return err
}

// SearchAuthor / SearchTitle / SearchSubject model the three search
// interactions.
func SearchAuthor(s *cluster.Session, x *Ctx) error {
	tx, err := s.Begin("tpcw.searchAuthor")
	if err != nil {
		return errShaped("searchAuthor", err)
	}
	prefix := AuthorLastName(1 + x.Rng.Intn(x.Scale.authors()))
	if _, err := tx.Exec(stSearchAuthor, prefix[:9]+"%"); err != nil {
		tx.Abort()
		return errShaped("searchAuthor", err)
	}
	_, err = tx.Commit()
	return err
}

// SearchTitle searches items by title prefix.
func SearchTitle(s *cluster.Session, x *Ctx) error {
	tx, err := s.Begin("tpcw.searchTitle")
	if err != nil {
		return errShaped("searchTitle", err)
	}
	if _, err := tx.Exec(stSearchTitle, "title_0%"); err != nil {
		tx.Abort()
		return errShaped("searchTitle", err)
	}
	_, err = tx.Commit()
	return err
}

// SearchSubject searches items by subject.
func SearchSubject(s *cluster.Session, x *Ctx) error {
	tx, err := s.Begin("tpcw.searchSubject")
	if err != nil {
		return errShaped("searchSubject", err)
	}
	if _, err := tx.Exec(stSearchSubject, x.randSubject()); err != nil {
		tx.Abort()
		return errShaped("searchSubject", err)
	}
	_, err = tx.Commit()
	return err
}

// OrderDisplay shows a customer's most recent order.
func OrderDisplay(s *cluster.Session, x *Ctx) error {
	tx, err := s.Begin("tpcw.orderDisplay")
	if err != nil {
		return errShaped("orderDisplay", err)
	}
	// The inquiry form authenticates by username first; the order
	// lookup then uses the returned c_id. (sconrep-vet's tableset
	// analyzer holds this body to the declared customer read.)
	cid := x.randCustomer()
	cust, err := tx.Exec(stGetCustomerUname, UserName(int(cid)))
	if err != nil {
		tx.Abort()
		return errShaped("orderDisplay", err)
	}
	if len(cust.Rows) == 1 {
		cid = cust.Rows[0][0].(int64)
	}
	res, err := tx.Exec(stLastOrder, cid)
	if err != nil {
		tx.Abort()
		return errShaped("orderDisplay", err)
	}
	if len(res.Rows) == 1 {
		oid := res.Rows[0][0].(int64)
		addr := res.Rows[0][4].(int64)
		if _, err := tx.Exec(stOrderLines, oid); err != nil {
			tx.Abort()
			return errShaped("orderDisplay", err)
		}
		if _, err := tx.Exec(stOrderAddress, addr); err != nil {
			tx.Abort()
			return errShaped("orderDisplay", err)
		}
	}
	_, err = tx.Commit()
	return err
}

// ShoppingCart creates or updates the browser's cart (an update
// transaction).
func ShoppingCart(s *cluster.Session, x *Ctx) error {
	tx, err := s.Begin("tpcw.shoppingCart")
	if err != nil {
		return errShaped("shoppingCart", err)
	}
	now := int64(13000 + x.Rng.Intn(100))
	if x.cartID == 0 {
		x.nextCartID++
		x.cartID = x.nextCartID
		if _, err := tx.Exec(stCreateCart, x.cartID, now); err != nil {
			tx.Abort()
			x.cartID = 0
			return errShaped("shoppingCart", err)
		}
	} else if _, err := tx.Exec(stTouchCart, now, x.cartID); err != nil {
		tx.Abort()
		return errShaped("shoppingCart", err)
	}
	// Add or bump 1–3 items.
	for n := 1 + x.Rng.Intn(3); n > 0; n-- {
		item := x.randItem()
		cur, err := tx.Exec(stGetCartLine, x.cartID, item)
		if err != nil {
			tx.Abort()
			return errShaped("shoppingCart", err)
		}
		if len(cur.Rows) == 0 {
			if _, err := tx.Exec(stAddCartLine, x.cartID, item, int64(1+x.Rng.Intn(4))); err != nil {
				tx.Abort()
				return errShaped("shoppingCart", err)
			}
		} else {
			q := cur.Rows[0][0].(int64) + 1
			if _, err := tx.Exec(stSetCartLine, q, x.cartID, item); err != nil {
				tx.Abort()
				return errShaped("shoppingCart", err)
			}
		}
	}
	// The cart page closes with its promotional-items strip — the
	// read that puts item in this transaction's declared table-set.
	if _, err := tx.Exec(stPromoItems, x.randItem()); err != nil {
		tx.Abort()
		return errShaped("shoppingCart", err)
	}
	_, err = tx.Commit()
	return err
}

// Register inserts a new customer (an update transaction).
func Register(s *cluster.Session, x *Ctx) error {
	tx, err := s.Begin("tpcw.register")
	if err != nil {
		return errShaped("register", err)
	}
	x.nextCustomerID++
	id := x.nextCustomerID
	uname := fmt.Sprintf("newuser_%d", id)
	row := []any{
		id, uname, "pwd" + uname, "New", "Customer",
		int64(1 + x.Rng.Intn(x.Scale.addresses())),
		"5550000000", uname + "@example.com",
		int64(13000), int64(13000), int64(13000), int64(13060),
		0.1, 0.0, 0.0, int64(8000), "new customer data",
	}
	if _, err := tx.Exec(stInsertCustomer, row...); err != nil {
		tx.Abort()
		return errShaped("register", err)
	}
	if _, err := tx.Exec(stGetCustomerByID, id); err != nil {
		tx.Abort()
		return errShaped("register", err)
	}
	_, err = tx.Commit()
	return err
}

// ErrEmptyCart is returned by BuyConfirm when the browser has no cart
// to purchase; callers treat it as a no-op interaction.
var ErrEmptyCart = errors.New("tpcw: empty cart")

// BuyConfirm is TPC-W's heaviest update transaction: it turns the
// browser's cart into an order (order + order lines + payment),
// decrements item stock, and empties the cart.
func BuyConfirm(s *cluster.Session, x *Ctx) error {
	if x.cartID == 0 {
		// Build a cart first so the purchase has lines.
		if err := ShoppingCart(s, x); err != nil {
			return err
		}
	}
	tx, err := s.Begin("tpcw.buyConfirm")
	if err != nil {
		return errShaped("buyConfirm", err)
	}
	lines, err := tx.Exec(stCartLines, x.cartID)
	if err != nil {
		tx.Abort()
		return errShaped("buyConfirm", err)
	}
	if len(lines.Rows) == 0 {
		tx.Abort()
		x.cartID = 0
		return ErrEmptyCart
	}
	// The original benchmark allocates o_id from a database sequence;
	// MAX(o_id) is still read (it is part of the interaction's work)
	// but the ID comes from the browser's collision-free range.
	if _, err := tx.Exec(stMaxOrderID); err != nil {
		tx.Abort()
		return errShaped("buyConfirm", err)
	}
	x.nextOrderID++
	oid := x.nextOrderID

	// TPC-W prices the order with the customer's discount; the read
	// is why customer is in this transaction's declared table-set.
	cust, err := tx.Exec(stGetCustomerByID, int64(x.CustomerID))
	if err != nil || len(cust.Rows) == 0 {
		tx.Abort()
		return errShaped("buyConfirm", rowErr("customer", err))
	}
	discount := cust.Rows[0][2].(float64)

	subTotal := 0.0
	for _, r := range lines.Rows {
		subTotal += float64(r[1].(int64)) * r[2].(float64)
	}
	subTotal *= 1 - discount
	tax := subTotal * 0.0825
	total := subTotal + tax + 3.0 + float64(len(lines.Rows))
	date := int64(13100 + x.Rng.Intn(10))

	if _, err := tx.Exec(stInsertOrder, oid, int64(x.CustomerID), date,
		subTotal, tax, total,
		shipTypes[x.Rng.Intn(len(shipTypes))], date+int64(x.Rng.Intn(7)),
		int64(1+x.Rng.Intn(x.Scale.addresses())), int64(1+x.Rng.Intn(x.Scale.addresses())),
		"PENDING"); err != nil {
		tx.Abort()
		return errShaped("buyConfirm", err)
	}
	for i, r := range lines.Rows {
		itemID := r[0].(int64)
		qty := r[1].(int64)
		if _, err := tx.Exec(stInsertOL, oid, int64(i+1), itemID, qty, 0.0, "buy"); err != nil {
			tx.Abort()
			return errShaped("buyConfirm", err)
		}
		// Decrement stock, restocking when it runs low (TPC-W rule).
		st, err := tx.Exec(stItemStock, itemID)
		if err != nil || len(st.Rows) == 0 {
			tx.Abort()
			return errShaped("buyConfirm", rowErr("stock", err))
		}
		stock := st.Rows[0][0].(int64) - qty
		if stock < 10 {
			stock += 21
		}
		if _, err := tx.Exec(stUpdateStock, stock, itemID); err != nil {
			tx.Abort()
			return errShaped("buyConfirm", err)
		}
	}
	if _, err := tx.Exec(stInsertCC, oid, "VISA", "4111111111111111", "BUYER",
		date+365, "AUTHOK", total, date, int64(1+x.Rng.Intn(x.Scale.countries()))); err != nil {
		tx.Abort()
		return errShaped("buyConfirm", err)
	}
	if _, err := tx.Exec(stDelCartLine, x.cartID); err != nil {
		tx.Abort()
		return errShaped("buyConfirm", err)
	}
	if _, err := tx.Commit(); err != nil {
		return err
	}
	x.cartID = 0
	return nil
}

// AdminConfirm updates an item's price, images, and related items (an
// update transaction over item + order_line).
func AdminConfirm(s *cluster.Session, x *Ctx) error {
	tx, err := s.Begin("tpcw.adminConfirm")
	if err != nil {
		return errShaped("adminConfirm", err)
	}
	item := x.randItem()
	floor := int64(x.Scale.orders() * 7 / 10)
	rel, err := tx.Exec(stAdminRelated, floor)
	if err != nil {
		tx.Abort()
		return errShaped("adminConfirm", err)
	}
	related := make([]int64, 5)
	for i := range related {
		if i < len(rel.Rows) {
			related[i] = rel.Rows[i][0].(int64)
		} else {
			related[i] = x.randItem()
		}
	}
	if _, err := tx.Exec(stAdminUpdate,
		1+x.Rng.Float64()*299,
		fmt.Sprintf("img/image_%d_v2.gif", item),
		fmt.Sprintf("img/thumb_%d_v2.gif", item),
		int64(13100),
		related[0], related[1], related[2], related[3], related[4],
		item); err != nil {
		tx.Abort()
		return errShaped("adminConfirm", err)
	}
	if _, err := tx.Exec(stProductDetail, item); err != nil {
		tx.Abort()
		return errShaped("adminConfirm", err)
	}
	_, err = tx.Commit()
	return err
}
