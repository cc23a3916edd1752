package micro

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"sconrep/internal/cluster"
	"sconrep/internal/core"
	"sconrep/internal/pstore"
	"sconrep/internal/sql"
	"sconrep/internal/storage"
)

func smallScale() Scale { return Scale{RowsPerTable: 200, Seed: 5} }

func TestLoad(t *testing.T) {
	e := storage.NewEngine()
	if err := Load(e, smallScale()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < NumTables; i++ {
		tx := e.Begin()
		got := 0
		err := tx.ScanVisible(tableName(i), func(string, uint64, []any) error { got++; return nil })
		tx.Abort()
		if err != nil {
			t.Fatal(err)
		}
		if got != 200 {
			t.Fatalf("%s has %d rows", tableName(i), got)
		}
	}
	if e.Version() != NumTables {
		t.Fatalf("load version = %d, want %d", e.Version(), NumTables)
	}
}

// TestLoadMatchesRowByRow: at the paper's scale, Load builds the engine
// that the same generated rows fed through Txn.Insert, one CommitLocal
// per table, fill — the same checkpoint bytes, version and per-table
// versions, and the same plan for every statement.
func TestLoadMatchesRowByRow(t *testing.T) {
	s := DefaultScale()
	built := storage.NewEngine()
	if err := Load(built, s); err != nil {
		t.Fatal(err)
	}
	rowByRow := storage.NewEngine()
	for _, sc := range schemas() {
		if err := rowByRow.CreateTable(sc); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < NumTables; i++ {
		tx := rowByRow.Begin()
		if err := loadTable(tx, i, s); err != nil {
			t.Fatal(err)
		}
		if _, err := tx.CommitLocal(); err != nil {
			t.Fatal(err)
		}
	}
	v := rowByRow.Version()
	if built.Version() != v {
		t.Fatalf("built at version %d, row by row at %d", built.Version(), v)
	}
	names := rowByRow.TablesSorted()
	if got, want := built.TableVersionsAt(names, v), rowByRow.TableVersionsAt(names, v); !reflect.DeepEqual(got, want) {
		t.Errorf("table versions %v, want %v", got, want)
	}
	gotImg, err := pstore.SnapshotAt(built, v)
	if err != nil {
		t.Fatal(err)
	}
	wantImg, err := pstore.SnapshotAt(rowByRow, v)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotImg, wantImg) {
		t.Error("checkpoint image differs from the row-by-row engine's")
	}
	for i := 0; i < NumTables; i++ {
		for _, st := range []*sql.Prepared{readStmts[i], updateStmts[i]} {
			got, gerr := sql.Explain(built, st.Stmt, []any{int64(1)})
			want, werr := sql.Explain(rowByRow, st.Stmt, []any{int64(1)})
			if got != want || (gerr == nil) != (werr == nil) {
				t.Errorf("%s: plan %q (%v), row by row %q (%v)", st.SQL, got, gerr, want, werr)
			}
		}
	}
}

func TestLoadDeterministic(t *testing.T) {
	a, b := storage.NewEngine(), storage.NewEngine()
	_ = Load(a, smallScale())
	_ = Load(b, smallScale())
	if a.Version() != b.Version() {
		t.Fatal("versions differ")
	}
}

// TestStatementPlans pins the micro-benchmark's eight statements to
// primary-key point lookups.
func TestStatementPlans(t *testing.T) {
	e := storage.NewEngine()
	if err := Load(e, smallScale()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < NumTables; i++ {
		want := "pk-point on " + tableName(i) + " where (id = ?)"
		for _, st := range []*sql.Prepared{readStmts[i], updateStmts[i]} {
			got, err := sql.Explain(e, st.Stmt, []any{int64(1)})
			if err != nil || got != want {
				t.Errorf("%s: plan %q (%v), want %q", st.SQL, got, err, want)
			}
		}
	}
}

func newMicroCluster(t *testing.T, replicas int, mode core.Mode) *cluster.Cluster {
	t.Helper()
	c, err := cluster.New(cluster.Config{Replicas: replicas, Mode: mode, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.LoadData(func(e *storage.Engine) error { return Load(e, smallScale()) }); err != nil {
		t.Fatal(err)
	}
	RegisterAll(c)
	t.Cleanup(c.Close)
	return c
}

func TestClientMixes(t *testing.T) {
	for _, pct := range []int{0, 50, 100} {
		c := newMicroCluster(t, 2, core.Fine)
		cl := Client{Scale: smallScale(), UpdatePercent: pct, Retries: 2}
		stop := make(chan struct{})
		res := make(chan int, 1)
		go func() { res <- cl.Run(c, 1, stop) }()
		time.Sleep(200 * time.Millisecond)
		close(stop)
		if n := <-res; n == 0 {
			t.Fatalf("pct=%d: no transactions completed", pct)
		}
		snap := c.Collector().Snapshot()
		switch pct {
		case 0:
			if snap.Updates != 0 {
				t.Fatalf("pct=0 recorded %d updates", snap.Updates)
			}
		case 100:
			if snap.ReadOnly != 0 {
				t.Fatalf("pct=100 recorded %d reads", snap.ReadOnly)
			}
		}
	}
}

func TestUpdatesReplicate(t *testing.T) {
	c := newMicroCluster(t, 3, core.Coarse)
	cl := Client{Scale: smallScale(), UpdatePercent: 100, Retries: 2}
	stop := make(chan struct{})
	res := make(chan int, 1)
	go func() { res <- cl.Run(c, 7, stop) }()
	time.Sleep(150 * time.Millisecond)
	close(stop)
	n := <-res
	if n == 0 {
		t.Fatal("no updates committed")
	}
	// Every replica converges to the certifier version.
	final := c.Certifier().Version()
	deadline := time.After(5 * time.Second)
	for i := 0; i < c.NumReplicas(); i++ {
		for c.Replica(i).Version() < final {
			select {
			case <-deadline:
				t.Fatalf("replica %d stuck at %d < %d", i, c.Replica(i).Version(), final)
			case <-time.After(time.Millisecond):
			}
		}
	}
}

func TestRunClients(t *testing.T) {
	c := newMicroCluster(t, 2, core.Session)
	RunClients(c, 3, Client{Scale: smallScale(), UpdatePercent: 25, Retries: 2},
		50*time.Millisecond, 150*time.Millisecond)
	snap := c.Collector().Snapshot()
	if snap.Committed == 0 {
		t.Fatal("measurement interval recorded nothing")
	}
	if snap.TPS <= 0 {
		t.Fatalf("TPS = %v", snap.TPS)
	}
}
