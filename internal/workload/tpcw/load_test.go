package tpcw

import (
	"bytes"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"sconrep/internal/pstore"
	"sconrep/internal/sql"
	"sconrep/internal/storage"
)

// loadRowByRow loads the TPC-W data the way the loader once did: the
// DDL executed statement by statement, then each generator's rows
// through Txn.Insert, one CommitLocal per generator.
func loadRowByRow(t *testing.T, s Scale) *storage.Engine {
	t.Helper()
	e := storage.NewEngine()
	for _, stmt := range ddl {
		tx := e.Begin()
		_, err := sql.Exec(tx, e, stmt)
		tx.Abort()
		if err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(s.Seed))
	for _, load := range loaders {
		tx := e.Begin()
		if err := load(tx, s, rng); err != nil {
			t.Fatal(err)
		}
		if _, err := tx.CommitLocal(); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// TestLoadMatchesRowByRow: at the default scale, Load builds the engine
// that the same generated rows fed through Txn.Insert and CommitLocal
// fill — the same checkpoint bytes, version and per-table versions, the
// same rows in every secondary index's order, and the same plan for
// every statement.
func TestLoadMatchesRowByRow(t *testing.T) {
	s := DefaultScale()
	built := storage.NewEngine()
	if err := Load(built, s); err != nil {
		t.Fatal(err)
	}
	rowByRow := loadRowByRow(t, s)
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
	for _, table := range names {
		sc, _ := rowByRow.Schema(table)
		for _, ix := range sc.Indexes {
			if got, want := indexWalk(t, built, table, ix.Name), indexWalk(t, rowByRow, table, ix.Name); !slices.Equal(got, want) {
				t.Errorf("%s.%s: walk differs (%d keys, want %d)", table, ix.Name, len(got), len(want))
			}
		}
	}
	for _, c := range planCases() {
		got, gerr := sql.Explain(built, c.st.Stmt, c.params)
		want, werr := sql.Explain(rowByRow, c.st.Stmt, c.params)
		if got != want || (gerr == nil) != (werr == nil) {
			t.Errorf("%s: plan %q (%v), row by row %q (%v)", c.st.SQL, got, gerr, want, werr)
		}
	}
}

// indexWalk returns the primary keys of every row of table in the
// order of its secondary index.
func indexWalk(t *testing.T, e *storage.Engine, table, index string) []string {
	t.Helper()
	tx := e.Begin()
	defer tx.Abort()
	var keys []string
	c := tx.IndexCursor(table, index)
	for c.Next() {
		keys = append(keys, c.KV().Key)
	}
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	return keys
}

// TestTablesMatchDDL: Tables names exactly the tables the DDL creates.
func TestTablesMatchDDL(t *testing.T) {
	schemas, err := parseSchema()
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, s := range schemas {
		got = append(got, s.Table)
	}
	want := slices.Clone(Tables)
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Errorf("DDL tables %v, Tables %v", got, want)
	}
}
