package tpcw

import (
	"fmt"
	"math/rand"

	"sconrep/internal/storage"
)

// Scale controls the generated database size. The TPC-W standard
// scaling (1,000 items, 2,880 customers per EB) is shrunk to
// laptop-size defaults that keep the same table-cardinality ratios.
type Scale struct {
	Items     int
	Customers int
	// Seed makes generation deterministic; every replica must load
	// byte-identical data.
	Seed int64
}

// DefaultScale mirrors the paper's 1,000-item configuration at a
// laptop-friendly customer count.
func DefaultScale() Scale {
	return Scale{Items: 1000, Customers: 1440, Seed: 20100301}
}

// derived cardinalities per the TPC-W ratios.
func (s Scale) authors() int   { return s.Items/4 + 1 }
func (s Scale) addresses() int { return s.Customers * 2 }
func (s Scale) orders() int    { return s.Customers * 9 / 10 }
func (s Scale) countries() int { return 92 }

// CartIDBase separates preloaded shopping carts (none) from runtime
// carts: runtime cart IDs are allocated per client from this base.
const CartIDBase = 1 << 40

// OrderIDBase separates preloaded orders from runtime orders; each
// browser allocates order IDs from its own sub-range, emulating the
// database sequence the original benchmark uses.
const OrderIDBase = 1 << 41

// Load populates the empty engine e with the full TPC-W dataset. It is
// deterministic in Scale.Seed, so loading N replicas yields identical
// states and identical final versions. The rows are collected table by
// table, each table (orders with its lines and payments) one version,
// and built into e in one step (storage.Loader).
func Load(e *storage.Engine, s Scale) error {
	schemas, err := parseSchema()
	if err != nil {
		return err
	}
	l, err := storage.NewLoader(schemas...)
	if err != nil {
		return err
	}
	l.Grow("country", s.countries())
	l.Grow("address", s.addresses())
	l.Grow("customer", s.Customers)
	l.Grow("author", s.authors())
	l.Grow("item", s.Items)
	l.Grow("orders", s.orders())
	l.Grow("order_line", maxLines*s.orders())
	l.Grow("cc_xacts", s.orders())
	rng := rand.New(rand.NewSource(s.Seed))
	for _, load := range loaders {
		if err := load(l, s, rng); err != nil {
			return err
		}
		l.Commit()
	}
	if err := l.Build(e); err != nil {
		return fmt.Errorf("tpcw: loading: %w", err)
	}
	return nil
}

// loaders generate the tables in load order, each group one version:
// every one draws from the one RNG stream, so the order is part of the
// data.
var loaders = []func(rowSink, Scale, *rand.Rand) error{
	loadCountries, loadAddresses, loadCustomers, loadAuthors, loadItems, loadOrders,
}

// rowSink takes generated rows: a storage.Loader in Load, or a
// storage.Txn, which takes the same rows one Insert at a time.
type rowSink interface {
	Insert(table string, row []any) error
}

func loadCountries(sink rowSink, s Scale, rng *rand.Rand) error {
	for i := 1; i <= s.countries(); i++ {
		row := []any{
			int64(i),
			fmt.Sprintf("COUNTRY_%02d", i),
			1 + rng.Float64()*10,
			fmt.Sprintf("CUR%02d", i),
		}
		if err := sink.Insert("country", row); err != nil {
			return err
		}
	}
	return nil
}

func loadAddresses(sink rowSink, s Scale, rng *rand.Rand) error {
	for i := 1; i <= s.addresses(); i++ {
		row := []any{
			int64(i),
			randomString(rng, 20, "street"),
			randomString(rng, 20, "street"),
			randomString(rng, 10, "city"),
			randomString(rng, 2, "st"),
			fmt.Sprintf("%05d", rng.Intn(99999)),
			int64(1 + rng.Intn(s.countries())),
		}
		if err := sink.Insert("address", row); err != nil {
			return err
		}
	}
	return nil
}

func loadCustomers(sink rowSink, s Scale, rng *rand.Rand) error {
	for i := 1; i <= s.Customers; i++ {
		row := []any{
			int64(i),
			UserName(i),
			"pwd" + UserName(i),
			randomString(rng, 8, "fname"),
			randomString(rng, 12, "lname"),
			int64(1 + rng.Intn(s.addresses())),
			fmt.Sprintf("%010d", rng.Intn(1<<31)),
			UserName(i) + "@example.com",
			int64(10000 + rng.Intn(2000)), // c_since (day number)
			int64(12000 + rng.Intn(500)),  // c_last_login
			int64(12500),                  // c_login
			int64(12600),                  // c_expiration
			float64(rng.Intn(51)) / 100,   // c_discount 0.00–0.50
			0.0,                           // c_balance
			float64(rng.Intn(100000)) / 100,
			int64(3000 + rng.Intn(20000)), // c_birthdate
			randomString(rng, 100, "data"),
		}
		if err := sink.Insert("customer", row); err != nil {
			return err
		}
	}
	return nil
}

func loadAuthors(sink rowSink, s Scale, rng *rand.Rand) error {
	for i := 1; i <= s.authors(); i++ {
		row := []any{
			int64(i),
			randomString(rng, 8, "afn"),
			AuthorLastName(i),
			randomString(rng, 8, "amn"),
			int64(rng.Intn(20000)),
			randomString(rng, 200, "bio"),
		}
		if err := sink.Insert("author", row); err != nil {
			return err
		}
	}
	return nil
}

func loadItems(sink rowSink, s Scale, rng *rand.Rand) error {
	for i := 1; i <= s.Items; i++ {
		related := func() int64 { return int64(1 + rng.Intn(s.Items)) }
		srp := 1 + rng.Float64()*299
		row := []any{
			int64(i),
			ItemTitle(i),
			int64(1 + rng.Intn(s.authors())),
			int64(9000 + rng.Intn(4000)), // i_pub_date
			randomString(rng, 14, "pub"),
			subjects[rng.Intn(len(subjects))],
			randomString(rng, 100, "desc"),
			related(), related(), related(), related(), related(),
			fmt.Sprintf("img/thumb_%d.gif", i),
			fmt.Sprintf("img/image_%d.gif", i),
			srp,
			srp * (0.5 + rng.Float64()*0.5), // i_cost
			int64(12000 + rng.Intn(30)),     // i_avail
			int64(10 + rng.Intn(21)),        // i_stock 10–30
			fmt.Sprintf("%013d", rng.Int63n(1e13)),
			int64(20 + rng.Intn(9980)),
			backings[rng.Intn(len(backings))],
			fmt.Sprintf("%dx%dx%d", 1+rng.Intn(99), 1+rng.Intn(99), 1+rng.Intn(99)),
		}
		if err := sink.Insert("item", row); err != nil {
			return err
		}
	}
	return nil
}

func loadOrders(sink rowSink, s Scale, rng *rand.Rand) error {
	// orders + order_line + cc_xacts load together: their rows are
	// correlated.
	for o := 1; o <= s.orders(); o++ {
		nLines := 1 + rng.Intn(maxLines)
		subTotal := 0.0
		date := int64(12000 + rng.Intn(400))
		for line := 1; line <= nLines; line++ {
			qty := int64(1 + rng.Intn(10))
			price := 1 + rng.Float64()*299
			subTotal += float64(qty) * price
			row := []any{
				int64(o), int64(line),
				int64(1 + rng.Intn(s.Items)),
				qty,
				float64(rng.Intn(31)) / 100,
				randomString(rng, 20, "olc"),
			}
			if err := sink.Insert("order_line", row); err != nil {
				return err
			}
		}
		tax := subTotal * 0.0825
		row := []any{
			int64(o),
			int64(1 + rng.Intn(s.Customers)),
			date,
			subTotal,
			tax,
			subTotal + tax + 3.0 + float64(nLines),
			shipTypes[rng.Intn(len(shipTypes))],
			date + int64(rng.Intn(7)),
			int64(1 + rng.Intn(s.addresses())),
			int64(1 + rng.Intn(s.addresses())),
			statuses[rng.Intn(len(statuses))],
		}
		if err := sink.Insert("orders", row); err != nil {
			return err
		}
		cc := []any{
			int64(o),
			[]string{"VISA", "MASTERCARD", "DISCOVER", "AMEX", "DINERS"}[rng.Intn(5)],
			fmt.Sprintf("%016d", rng.Int63n(1e16)),
			randomString(rng, 14, "ccname"),
			date + 365,
			fmt.Sprintf("AUTH%011d", rng.Int63n(1e11)),
			subTotal + tax,
			date,
			int64(1 + rng.Intn(s.countries())),
		}
		if err := sink.Insert("cc_xacts", cc); err != nil {
			return err
		}
	}
	return nil
}

// maxLines bounds a preloaded order's lines.
const maxLines = 5

// UserName derives the deterministic TPC-W user name for customer i.
func UserName(i int) string { return fmt.Sprintf("user_%06d", i) }

// AuthorLastName derives a deterministic author surname; searches use
// its prefix.
func AuthorLastName(i int) string { return fmt.Sprintf("lastname_%04d", i) }

// ItemTitle derives a deterministic item title; searches use its
// prefix.
func ItemTitle(i int) string { return fmt.Sprintf("title_%06d of book %d", i, i) }

// randomString generates a deterministic pseudo-random token with a
// tag prefix, roughly n bytes long.
func randomString(rng *rand.Rand, n int, tag string) string {
	const alphabet = "abcdefghijklmnopqrstuvwxyz "
	b := make([]byte, 0, n+len(tag)+1)
	b = append(b, tag...)
	b = append(b, '_')
	for len(b) < n+len(tag)+1 {
		b = append(b, alphabet[rng.Intn(len(alphabet))])
	}
	return string(b)
}
