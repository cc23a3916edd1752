package tpcw

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"sconrep/internal/cluster"
	"sconrep/internal/core"
	"sconrep/internal/replica"
	"sconrep/internal/shard"
	"sconrep/internal/sql"
	"sconrep/internal/storage"
)

// smallScale keeps tests fast.
func smallScale() Scale { return Scale{Items: 100, Customers: 80, Seed: 99} }

func TestLoadDeterministic(t *testing.T) {
	s := smallScale()
	a, b := storage.NewEngine(), storage.NewEngine()
	if err := Load(a, s); err != nil {
		t.Fatal(err)
	}
	if err := Load(b, s); err != nil {
		t.Fatal(err)
	}
	if a.Version() != b.Version() {
		t.Fatalf("versions differ: %d vs %d", a.Version(), b.Version())
	}
	for _, table := range Tables {
		ta, tb := a.Begin(), b.Begin()
		rowsA, err := ta.ScanAll(table)
		if err != nil {
			t.Fatal(err)
		}
		rowsB, _ := tb.ScanAll(table)
		if len(rowsA) != len(rowsB) {
			t.Fatalf("%s: %d vs %d rows", table, len(rowsA), len(rowsB))
		}
		for i := range rowsA {
			if rowsA[i].Key != rowsB[i].Key {
				t.Fatalf("%s diverged at row %d", table, i)
			}
			for c := range rowsA[i].Row {
				if rowsA[i].Row[c] != rowsB[i].Row[c] {
					t.Fatalf("%s[%d] col %d: %v vs %v", table, i, c, rowsA[i].Row[c], rowsB[i].Row[c])
				}
			}
		}
	}
}

func TestLoadCardinalities(t *testing.T) {
	s := smallScale()
	e := storage.NewEngine()
	if err := Load(e, s); err != nil {
		t.Fatal(err)
	}
	checks := map[string]int{
		"item":     s.Items,
		"customer": s.Customers,
		"country":  s.countries(),
		"address":  s.addresses(),
		"orders":   s.orders(),
		"author":   s.authors(),
		"cc_xacts": s.orders(),
	}
	rows := func(table string) int {
		n := 0
		if err := e.ScanVisible(table, e.Version(), func(string, uint64, []any) error { n++; return nil }); err != nil {
			t.Fatal(err)
		}
		return n
	}
	for table, want := range checks {
		if got := rows(table); got != want {
			t.Errorf("%s: %d rows, want %d", table, got, want)
		}
	}
	// Order lines: between 1 and 5 per order.
	ol := rows("order_line")
	if ol < s.orders() || ol > 5*s.orders() {
		t.Errorf("order_line: %d rows for %d orders", ol, s.orders())
	}
}

func TestStatementsPrepared(t *testing.T) {
	for name, stmts := range TxnNames {
		if len(stmts) == 0 {
			t.Errorf("%s: no statements", name)
		}
		for i, p := range stmts {
			if p == nil {
				t.Fatalf("%s: statement %d failed to prepare", name, i)
			}
		}
	}
}

func TestTableSets(t *testing.T) {
	// Spot-check the statically extracted table-sets that drive FSC.
	find := func(name string) []string {
		seen := map[string]bool{}
		var out []string
		for _, p := range TxnNames[name] {
			for _, tb := range p.TableSet {
				if !seen[tb] {
					seen[tb] = true
					out = append(out, tb)
				}
			}
		}
		return out
	}
	bs := find("tpcw.bestSellers")
	if len(bs) != 2 {
		t.Errorf("bestSellers table-set = %v", bs)
	}
	np := find("tpcw.newProducts")
	if len(np) != 2 {
		t.Errorf("newProducts table-set = %v", np)
	}
	sc := find("tpcw.searchSubject")
	if len(sc) != 1 || sc[0] != "item" {
		t.Errorf("searchSubject table-set = %v", sc)
	}
}

func newTPCWCluster(t *testing.T, replicas int, mode core.Mode) *cluster.Cluster {
	t.Helper()
	c, err := cluster.New(cluster.Config{Replicas: replicas, Mode: mode, Seed: 17, RecordHistory: true})
	if err != nil {
		t.Fatal(err)
	}
	s := smallScale()
	if err := c.LoadData(func(e *storage.Engine) error { return Load(e, s) }); err != nil {
		t.Fatal(err)
	}
	RegisterAll(c)
	t.Cleanup(c.Close)
	return c
}

// TestAllInteractionsRun executes every interaction at least once per
// consistency mode on a live cluster.
func TestAllInteractionsRun(t *testing.T) {
	for _, mode := range []core.Mode{core.Coarse, core.Fine, core.Session, core.Eager} {
		t.Run(mode.String(), func(t *testing.T) {
			c := newTPCWCluster(t, 2, mode)
			s := c.NewSession()
			defer s.Close()
			x := NewCtx(smallScale(), 1, 12345)
			interactions := append(readInteractions(1, 1, 1, 1, 1, 1), updateInteractions(1, 1, 1, 1)...)
			for _, in := range interactions {
				for attempt := 0; ; attempt++ {
					err := in.Run(s, x)
					if err == nil {
						break
					}
					if attempt >= 3 || !retryable(err) {
						t.Fatalf("%s: %v", in.Name, err)
					}
				}
			}
		})
	}
}

// TestBuyConfirmSemantics verifies the purchase pipeline end to end:
// stock decremented (or restocked), order and lines inserted, cart
// emptied, and the effects replicated.
func TestBuyConfirmSemantics(t *testing.T) {
	c := newTPCWCluster(t, 2, core.Coarse)
	s := c.NewSession()
	defer s.Close()
	x := NewCtx(smallScale(), 2, 777)

	if err := ShoppingCart(s, x); err != nil {
		t.Fatal(err)
	}
	cartID := x.cartID
	if cartID == 0 {
		t.Fatal("cart not created")
	}
	if err := BuyConfirm(s, x); err != nil {
		t.Fatal(err)
	}
	if x.cartID != 0 {
		t.Fatal("cart not cleared after purchase")
	}

	// Verify on the other replica: order exists, cart lines gone.
	ordersQ, _ := sql.Prepare(`SELECT COUNT(*) FROM orders WHERE o_c_id = ?`)
	linesQ, _ := sql.Prepare(`SELECT COUNT(*) FROM shopping_cart_line WHERE scl_sc_id = ?`)
	tx, err := s.Begin("tpcw.orderDisplay")
	if err != nil {
		t.Fatal(err)
	}
	res, err := tx.Exec(ordersQ, int64(x.CustomerID))
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].(int64) < 1 {
		t.Fatal("order not found after BuyConfirm")
	}
	res, err = tx.Exec(linesQ, cartID)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].(int64) != 0 {
		t.Fatalf("cart lines remain: %v", res.Rows[0][0])
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestReadErrorsKeepAbortInChain pins the retry contract of the reads
// that must return a row (BuyConfirm's customer and stock reads): an
// abort raised by the read stays matchable with errors.Is through
// errShaped, so callers can tell it from a failure.
func TestReadErrorsKeepAbortInChain(t *testing.T) {
	for _, abort := range []error{replica.ErrCertifyConflict, replica.ErrEarlyAbort} {
		err := errShaped("buyConfirm", rowErr("customer", fmt.Errorf("exec: %w", abort)))
		if !errors.Is(err, abort) {
			t.Errorf("%v lost from the chain of %q", abort, err)
		}
	}
	err := errShaped("buyConfirm", rowErr("stock", nil))
	if got := err.Error(); got != "tpcw buyConfirm: stock read: no row" {
		t.Errorf("missing-row error = %q", got)
	}
}

func TestMixUpdateFractions(t *testing.T) {
	cases := []struct {
		mix  *Mix
		want float64
		tol  float64
	}{
		{BrowsingMix(), 0.05, 0.02},
		{ShoppingMix(), 0.20, 0.03},
		{OrderingMix(), 0.50, 0.03},
	}
	for _, c := range cases {
		got := c.mix.UpdateFraction()
		if got < c.want-c.tol || got > c.want+c.tol {
			t.Errorf("%s mix update fraction = %.3f, want %.2f±%.2f", c.mix.Name, got, c.want, c.tol)
		}
	}
	if _, err := MixByName("shopping"); err != nil {
		t.Fatal(err)
	}
	if _, err := MixByName("nope"); err == nil {
		t.Fatal("unknown mix accepted")
	}
}

func TestMixPickDistribution(t *testing.T) {
	m := ShoppingMix()
	x := NewCtx(smallScale(), 3, 1)
	counts := map[string]int{}
	const n = 5000
	for i := 0; i < n; i++ {
		counts[m.pick(x).Name]++
	}
	total := 0
	for _, in := range m.Interactions {
		total += in.Weight
	}
	for _, in := range m.Interactions {
		if in.Weight == 0 {
			continue
		}
		want := float64(n) * float64(in.Weight) / float64(total)
		got := float64(counts[in.Name])
		if got < want*0.6-5 || got > want*1.4+5 {
			t.Errorf("%s: picked %v times, expected ≈%.0f", in.Name, got, want)
		}
	}
}

// TestEBRunCompletes drives emulated browsers briefly under each mix.
func TestEBRunCompletes(t *testing.T) {
	c := newTPCWCluster(t, 2, core.Fine)
	for _, mix := range []*Mix{BrowsingMix(), ShoppingMix(), OrderingMix()} {
		eb := &EB{Mix: mix, Scale: smallScale(), ThinkTime: 0, Retries: 2}
		stop := make(chan struct{})
		resC := make(chan int, 2)
		for i := 0; i < 2; i++ {
			go func(i int) { resC <- eb.Run(c, 100+i, stop) }(i)
		}
		time.Sleep(300 * time.Millisecond)
		close(stop)
		total := <-resC + <-resC
		if total == 0 {
			t.Fatalf("%s: no interactions completed", mix.Name)
		}
	}
}

func TestDeterministicNames(t *testing.T) {
	if UserName(7) != UserName(7) || ItemTitle(3) != ItemTitle(3) {
		t.Fatal("deterministic names differ across calls")
	}
	if AuthorLastName(1) == AuthorLastName(2) {
		t.Fatal("author names collide")
	}
}

// TestShardMapConsistent pins ShardMap and CrossShardTxns to TxnNames:
// every table a transaction touches must be mapped, and CrossShardTxns
// must be exactly the transactions whose table-sets span shards.
func TestShardMapConsistent(t *testing.T) {
	smap, err := shard.New(ShardCount, ShardMap)
	if err != nil {
		t.Fatal(err)
	}
	for _, table := range Tables {
		if _, ok := ShardMap[table]; !ok {
			t.Errorf("schema table %q missing from ShardMap", table)
		}
	}
	cross := map[string]bool{}
	for _, name := range CrossShardTxns {
		if _, ok := TxnNames[name]; !ok {
			t.Errorf("CrossShardTxns lists unknown transaction %q", name)
		}
		cross[name] = true
	}
	for name, stmts := range TxnNames {
		var tables []string
		for _, p := range stmts {
			for _, tab := range p.TableSet {
				if _, ok := ShardMap[tab]; !ok {
					t.Errorf("%s touches table %q missing from ShardMap", name, tab)
				}
				tables = append(tables, tab)
			}
		}
		spans := len(smap.OfTables(tables)) > 1
		if spans && !cross[name] {
			t.Errorf("%s spans multiple shards but is not in CrossShardTxns", name)
		}
		if !spans && cross[name] {
			t.Errorf("%s is single-shard but listed in CrossShardTxns", name)
		}
	}
}
