package storage_test

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"sconrep/internal/pstore"
	"sconrep/internal/storage"
)

// TestLoaderMatchesRowByRowLoad is the loader's differential check:
// testData's batches inserted through a Loader, one Commit per batch,
// build an engine that reads exactly as the one loadRowByRow fills
// through Txn.Insert and CommitLocal — the same checkpoint bytes, index
// entries, per-table versions and version. The rows arrive out of key
// order, so every table is sorted on the way.
func TestLoaderMatchesRowByRowLoad(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			src := loadRowByRow(t, seed)
			schemas, batches := testData(seed)
			l, err := storage.NewLoader(schemas...)
			if err != nil {
				t.Fatal(err)
			}
			for _, b := range batches {
				for _, r := range b {
					if err := l.Insert(r.table, r.row); err != nil {
						t.Fatal(err)
					}
				}
				l.Commit()
			}
			built := storage.NewEngine()
			if err := l.Build(built); err != nil {
				t.Fatal(err)
			}
			v := src.Version()
			if built.Version() != v {
				t.Fatalf("built at version %d, row by row at %d", built.Version(), v)
			}
			want, err := pstore.SnapshotAt(src, v)
			if err != nil {
				t.Fatal(err)
			}
			got, err := pstore.SnapshotAt(built, v)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Error("checkpoint image differs from the row-by-row engine's")
			}
			if got, want := storage.IndexDump(built), storage.IndexDump(src); got != want {
				t.Errorf("index entries\n%s\nwant\n%s", got, want)
			}
			names := []string{"empty", "item", "line", "none"}
			if got, want := built.TableVersionsAt(names, v), src.TableVersionsAt(names, v); !reflect.DeepEqual(got, want) {
				t.Errorf("table versions %v, want %v", got, want)
			}
		})
	}
}

// kvSchema is the one-table schema of the loader's unit tests.
func kvSchema() *storage.Schema {
	return &storage.Schema{
		Table:   "kv",
		Columns: []storage.Column{{Name: "id", Type: storage.TInt}, {Name: "v", Type: storage.TString}},
		Key:     []string{"id"},
		Indexes: []storage.IndexDef{{Name: "kv_v", Column: "v"}},
	}
}

func newLoader(t *testing.T, schemas ...*storage.Schema) *storage.Loader {
	t.Helper()
	l, err := storage.NewLoader(schemas...)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// TestLoaderSortsAndVersions: rows inserted out of key order come out
// in key order, each at the version of the Commit that closed its
// group; a Commit with no rows since the last gives out no version, and
// a table never inserted into is built empty, last written at 0.
func TestLoaderSortsAndVersions(t *testing.T) {
	other := &storage.Schema{Table: "other", Columns: []storage.Column{{Name: "id", Type: storage.TInt}}, Key: []string{"id"}}
	l := newLoader(t, kvSchema(), other)
	l.Commit() // nothing yet: no version
	for _, id := range []int64{5, 2, 9} {
		if err := l.Insert("kv", []any{id, "a"}); err != nil {
			t.Fatal(err)
		}
	}
	l.Commit()
	l.Commit()
	for _, id := range []int64{1, 7} {
		if err := l.Insert("kv", []any{id, "b"}); err != nil {
			t.Fatal(err)
		}
	}
	l.Commit()
	e := storage.NewEngine()
	if err := l.Build(e); err != nil {
		t.Fatal(err)
	}
	if e.Version() != 2 {
		t.Fatalf("version %d, want 2", e.Version())
	}
	if got := e.TableVersionsAt([]string{"kv", "other"}, 2); !reflect.DeepEqual(got, []uint64{2, 0}) {
		t.Errorf("table versions %v, want [2 0]", got)
	}
	tx := e.Begin()
	defer tx.Abort()
	var got []string
	err := tx.ScanVisible("kv", func(_ string, v uint64, row []any) error {
		got = append(got, fmt.Sprintf("%d@%d", row[0], v))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"1@2", "2@1", "5@1", "7@2", "9@1"}; !reflect.DeepEqual(got, want) {
		t.Errorf("rows %v, want %v", got, want)
	}
	if n := 0; tx.ScanVisible("other", func(string, uint64, []any) error { n++; return nil }) != nil || n != 0 {
		t.Errorf("other holds %d rows", n)
	}
	if kvs, err := tx.ScanIndexEq("kv", "kv_v", "b"); err != nil || len(kvs) != 2 {
		t.Errorf("index read of v = b: %d rows (%v), want 2", len(kvs), err)
	}
}

// TestLoaderRefusesDuplicateKey: a key inserted twice into one table,
// next to each other or apart, fails the build with ErrDuplicateKey
// naming the table, and leaves the engine empty.
func TestLoaderRefusesDuplicateKey(t *testing.T) {
	for name, ids := range map[string][]int64{
		"adjacent": {1, 2, 2, 3},
		"apart":    {2, 1, 3, 2},
	} {
		l := newLoader(t, kvSchema())
		for _, id := range ids {
			if err := l.Insert("kv", []any{id, "x"}); err != nil {
				t.Fatal(err)
			}
		}
		l.Commit()
		e := storage.NewEngine()
		err := l.Build(e)
		if !errors.Is(err, storage.ErrDuplicateKey) || !strings.Contains(err.Error(), "kv") {
			t.Errorf("%s: build error %v, want a duplicate key in kv", name, err)
		}
		if len(e.Tables()) != 0 || e.Version() != 0 {
			t.Errorf("%s: refused build left %v at version %d", name, e.Tables(), e.Version())
		}
	}
}

// TestLoaderRefusesBadInput: a row off its schema or for an unknown
// table is refused at Insert and not kept; an invalid or repeated schema
// is refused by NewLoader; rows inserted after the last Commit fail the
// build.
func TestLoaderRefusesBadInput(t *testing.T) {
	l := newLoader(t, kvSchema())
	for name, row := range map[string][]any{
		"short row":   {int64(1)},
		"wrong type":  {"one", "x"},
		"NULL in key": {nil, "x"},
	} {
		if err := l.Insert("kv", row); err == nil {
			t.Errorf("%s: inserted", name)
		}
	}
	if err := l.Insert("none", []any{int64(1), "x"}); !errors.Is(err, storage.ErrNoTable) {
		t.Errorf("unknown table: %v, want ErrNoTable", err)
	}
	if err := l.Insert("kv", []any{int64(1), "x"}); err != nil {
		t.Fatal(err)
	}
	if err := l.Build(storage.NewEngine()); err == nil {
		t.Error("built rows inserted after the last commit")
	}
	l.Commit()
	e := storage.NewEngine()
	if err := l.Build(e); err != nil {
		t.Fatal(err)
	}
	tx := e.Begin()
	kvs, err := tx.ScanAll("kv")
	tx.Abort()
	if err != nil || len(kvs) != 1 {
		t.Errorf("built %d rows (%v), want the one good row", len(kvs), err)
	}

	if _, err := storage.NewLoader(&storage.Schema{Table: "nokey", Columns: kvSchema().Columns}); err == nil {
		t.Error("NewLoader took a schema without a key")
	}
	if _, err := storage.NewLoader(kvSchema(), kvSchema()); err == nil {
		t.Error("NewLoader took a table twice")
	}
}

// TestLoaderRefusesNonEmptyEngine: a build into an engine that has a
// table, or has moved past version 0, is refused and leaves that engine
// as it was.
func TestLoaderRefusesNonEmptyEngine(t *testing.T) {
	l := newLoader(t, kvSchema())
	if err := l.Insert("kv", []any{int64(1), "x"}); err != nil {
		t.Fatal(err)
	}
	l.Commit()
	e := storage.NewEngine()
	if err := e.CreateTable(&storage.Schema{Table: "other", Columns: kvSchema().Columns, Key: []string{"id"}}); err != nil {
		t.Fatal(err)
	}
	if err := l.Build(e); err == nil {
		t.Error("built into an engine with a table")
	}
	if got := e.Tables(); len(got) != 1 || got[0] != "other" || e.Version() != 0 {
		t.Errorf("refused build left tables %v at version %d", got, e.Version())
	}
	moved := storage.NewEngine()
	moved.PublishVersion(1)
	if err := l.Build(moved); err == nil || len(moved.Tables()) != 0 || moved.Version() != 1 {
		t.Errorf("built into an engine past version 0: %v", err)
	}
}
