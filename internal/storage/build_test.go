package storage_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"sconrep/internal/pstore"
	"sconrep/internal/storage"
)

// testData is the data Build is checked against: two tables, one with
// a composite key and one with two secondary indexes (an INT one
// holding NULLs, a TEXT one with repeated values), plus an empty table
// with an index, and their rows in a shuffled key order, split into
// batches that each commit at one version, so rows carry different
// versions and the trees grow out of order.
func testData(seed int64) ([]*storage.Schema, [][]testRow) {
	schemas := []*storage.Schema{{
		Table:   "item",
		Columns: []storage.Column{{Name: "id", Type: storage.TInt}, {Name: "grp", Type: storage.TInt}, {Name: "name", Type: storage.TString}, {Name: "price", Type: storage.TFloat}},
		Key:     []string{"id"},
		Indexes: []storage.IndexDef{{Name: "item_grp", Column: "grp"}, {Name: "item_name", Column: "name"}},
	}, {
		Table:   "line",
		Columns: []storage.Column{{Name: "order", Type: storage.TInt}, {Name: "no", Type: storage.TInt}, {Name: "ok", Type: storage.TBool}},
		Key:     []string{"order", "no"},
	}, {
		Table:   "empty",
		Columns: []storage.Column{{Name: "id", Type: storage.TInt}},
		Key:     []string{"id"},
		Indexes: []storage.IndexDef{{Name: "empty_id", Column: "id"}},
	}}
	rng := rand.New(rand.NewSource(seed))
	var rows []testRow
	for _, id := range rng.Perm(700) {
		var grp any = int64(rng.Intn(9))
		if rng.Intn(6) == 0 {
			grp = nil
		}
		rows = append(rows, testRow{"item", []any{int64(id), grp, fmt.Sprintf("name-%d", rng.Intn(40)), float64(id) / 4}})
	}
	for _, i := range rng.Perm(300) {
		rows = append(rows, testRow{"line", []any{int64(i / 7), int64(i % 7), i%3 == 0}})
	}
	rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
	var batches [][]testRow
	for len(rows) > 0 {
		n := min(len(rows), 1+rng.Intn(200))
		batches = append(batches, rows[:n])
		rows = rows[n:]
	}
	return schemas, batches
}

// testRow is one row of testData and its table.
type testRow struct {
	table string
	row   []any
}

// loadRowByRow loads testData the ordinary way: CreateTable, then one
// Insert per row and one CommitLocal per batch.
func loadRowByRow(t *testing.T, seed int64) *storage.Engine {
	t.Helper()
	e := storage.NewEngine()
	schemas, batches := testData(seed)
	for _, s := range schemas {
		if err := e.CreateTable(s); err != nil {
			t.Fatal(err)
		}
	}
	for _, b := range batches {
		tx := e.Begin()
		for _, r := range b {
			if err := tx.Insert(r.table, r.row); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := tx.CommitLocal(); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// TestBuildMatchesRowByRowLoad is Build's differential check: an engine
// built from a row-by-row-loaded engine's image, and one restored from
// that engine's checkpoint image, read exactly as it does — the same
// checkpoint bytes, the same index entries leading to the same rows,
// the same per-table versions, version and horizon.
func TestBuildMatchesRowByRowLoad(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			src := loadRowByRow(t, seed)
			v := src.Version()
			snap := src.Begin()
			img, err := snap.Image()
			snap.Abort()
			if err != nil {
				t.Fatal(err)
			}
			built := storage.NewEngine()
			if err := built.Build(v, img); err != nil {
				t.Fatal(err)
			}
			want, err := pstore.SnapshotAt(src, v)
			if err != nil {
				t.Fatal(err)
			}
			restored, _, err := pstore.LoadSnapshot(want)
			if err != nil {
				t.Fatal(err)
			}
			wantIx := storage.IndexDump(src)
			names := []string{"empty", "item", "line", "none"}
			for name, e := range map[string]*storage.Engine{"built": built, "restored": restored} {
				got, err := pstore.SnapshotAt(e, v)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("%s: checkpoint image differs from the row-by-row engine's", name)
				}
				if got := storage.IndexDump(e); got != wantIx {
					t.Errorf("%s: index entries\n%s\nwant\n%s", name, got, wantIx)
				}
				if got, want := e.TableVersionsAt(names, v), src.TableVersionsAt(names, v); !reflect.DeepEqual(got, want) {
					t.Errorf("%s: table versions %v, want %v", name, got, want)
				}
				if e.Version() != v || e.Horizon() != src.Horizon() {
					t.Errorf("%s: version %d horizon %d, want %d and %d", name, e.Version(), e.Horizon(), v, src.Horizon())
				}
			}
		})
	}
}

// TestBuildRefusesBadImages: an image with keys out of order or
// repeated, a row above the build version or off its schema, a table
// twice, a bad schema or a table written above the build version is
// refused, and so is an engine that is not empty; a refused build
// leaves the engine as it was.
func TestBuildRefusesBadImages(t *testing.T) {
	schema := &storage.Schema{
		Table:   "kv",
		Columns: []storage.Column{{Name: "id", Type: storage.TInt}, {Name: "v", Type: storage.TString}},
		Key:     []string{"id"},
		Indexes: []storage.IndexDef{{Name: "kv_v", Column: "v"}},
	}
	row := func(id int64, v uint64) storage.VersionedRow {
		return storage.VersionedRow{Key: storage.EncodeKey(id), Version: v, Row: []any{id, "x"}}
	}
	good := storage.TableImage{Schema: schema, Rows: []storage.VersionedRow{row(1, 1), row(2, 3)}}
	for name, img := range map[string][]storage.TableImage{
		"keys out of order": {{Schema: schema, Rows: []storage.VersionedRow{row(2, 1), row(1, 1)}}},
		"key repeated":      {{Schema: schema, Rows: []storage.VersionedRow{row(1, 1), row(1, 2)}}},
		"row above version": {{Schema: schema, Rows: []storage.VersionedRow{row(1, 4)}}},
		"row off schema":    {{Schema: schema, Rows: []storage.VersionedRow{{Key: storage.EncodeKey(int64(1)), Version: 1, Row: []any{int64(1), int64(2)}}}}},
		"table twice":       {good, good},
		"bad schema":        {{Schema: &storage.Schema{Table: "nokey", Columns: schema.Columns}}},
		"written above":     {{Schema: schema, LastWrite: 4}},
	} {
		e := storage.NewEngine()
		if err := e.Build(3, img); err == nil {
			t.Errorf("%s: built", name)
		}
		if len(e.Tables()) != 0 || e.Version() != 0 {
			t.Errorf("%s: refused build left %v at version %d", name, e.Tables(), e.Version())
		}
	}
	e := storage.NewEngine()
	if err := e.Build(3, []storage.TableImage{good}); err != nil {
		t.Fatal(err)
	}
	if err := e.Build(3, []storage.TableImage{good}); err == nil {
		t.Error("built into a built engine")
	}
	moved := storage.NewEngine()
	moved.PublishVersion(1)
	if err := moved.Build(3, []storage.TableImage{good}); err == nil || len(moved.Tables()) != 0 {
		t.Errorf("built into an engine past version 0: %v", err)
	}
	loaded := storage.NewEngine()
	if err := loaded.CreateTable(&storage.Schema{Table: "other", Columns: schema.Columns, Key: schema.Key}); err != nil {
		t.Fatal(err)
	}
	if err := loaded.Build(3, []storage.TableImage{good}); err == nil {
		t.Error("built into an engine with a table")
	}
	if got := loaded.Tables(); len(got) != 1 || got[0] != "other" {
		t.Errorf("refused build left tables %v", got)
	}
}
