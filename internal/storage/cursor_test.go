package storage

import (
	"errors"
	"maps"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"

	"sconrep/internal/writeset"
)

func kvTable(t *testing.T) *Engine {
	t.Helper()
	e := NewEngine()
	if err := e.CreateTable(&Schema{
		Table:   "kv",
		Columns: []Column{{Name: "id", Type: TInt}, {Name: "grp", Type: TInt}, {Name: "val", Type: TInt}},
		Key:     []string{"id"},
		Indexes: []IndexDef{{Name: "kv_grp", Column: "grp"}},
	}); err != nil {
		t.Fatal(err)
	}
	return e
}

// TestCursorAgainstModel compares Cursor (both directions, whole and
// abandoned scans), ScanRange, ScanIndexEq, AppendIndexIn (several
// values, one repeated, inside key bounds, after rows already in dst)
// and the index walk (whole and abandoned) with a brute-force model:
// a table several chunks long whose indexed column holds NULLs, history
// on both sides of two readers' snapshots, vacuum at the newer one's and
// keys re-inserted after it, and one reader's own inserts, updates and
// deletes on top — rows moved into, out of and between index values and
// to and from NULL.
func TestCursorAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	e := kvTable(t)
	const ids = 3000
	grp := func() any {
		if rng.Intn(6) == 0 {
			return nil
		}
		return int64(rng.Intn(5))
	}
	model := map[int64][]any{} // the committed state at the newest version

	commit := func(n int) {
		tx := e.Begin()
		for i := 0; i < n; i++ {
			id := int64(rng.Intn(ids))
			key := EncodeKey(id)
			_, exists, _ := tx.Get("kv", key)
			switch {
			case !exists:
				r := []any{id, grp(), int64(rng.Intn(1000))}
				if err := tx.Insert("kv", r); err != nil {
					t.Fatal(err)
				}
				model[id] = r
			case rng.Intn(3) == 0:
				if err := tx.Delete("kv", key); err != nil {
					t.Fatal(err)
				}
				delete(model, id)
			default:
				r := []any{id, grp(), int64(rng.Intn(1000))}
				if err := tx.Update("kv", key, r); err != nil {
					t.Fatal(err)
				}
				model[id] = r
			}
		}
		mustCommit(t, tx)
	}
	for i := 0; i < 3; i++ {
		commit(700)
	}
	older, olderModel := e.Begin(), maps.Clone(model)
	for i := 0; i < 3; i++ {
		commit(700)
	}
	reader, readerModel := e.Begin(), maps.Clone(model)
	for i := 0; i < 3; i++ {
		commit(700) // after the snapshot: invisible
	}

	check := func(what string, reader *Txn, model map[int64][]any) {
		t.Helper()
		var all []int64
		for id := range model {
			all = append(all, id)
		}
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
		for trial := 0; trial < 60; trial++ {
			lo, hi := int64(rng.Intn(ids)), int64(rng.Intn(ids+200))
			loKey, hiKey := EncodeKey(lo), EncodeKey(hi)
			switch trial % 4 {
			case 0:
				lo, loKey = math.MinInt64, ""
			case 1:
				hi, hiKey = ids+1000, ""
			}
			var want [][]any
			for _, id := range all {
				if id >= lo && id < hi {
					want = append(want, model[id])
				}
			}
			kvs, err := reader.ScanRange("kv", loKey, hiKey)
			if err != nil {
				t.Fatal(err)
			}
			var got [][]any
			for _, kv := range kvs {
				if kv.Key != EncodeKey(kv.Row[0]) {
					t.Fatalf("%s: key %q does not encode row %v", what, kv.Key, kv.Row)
				}
				got = append(got, kv.Row)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: ScanRange [%d,%d): %d rows, want %d", what, lo, hi, len(got), len(want))
			}
			// Descending, abandoned after a random number of rows.
			stop := rng.Intn(len(want) + 2)
			c := reader.Cursor("kv", loKey, hiKey, true)
			for i := 0; i < stop; i++ {
				if i >= len(want) {
					if c.Next() {
						t.Fatalf("%s: descending [%d,%d): extra row %v", what, lo, hi, c.KV().Row)
					}
					break
				}
				if !c.Next() || !reflect.DeepEqual(c.KV().Row, want[len(want)-1-i]) {
					t.Fatalf("%s: descending [%d,%d) row %d = %v, want %v", what, lo, hi, i, c.KV().Row, want[len(want)-1-i])
				}
			}
			if c.Err() != nil {
				t.Fatal(c.Err())
			}
		}
		for g := int64(0); g < 5; g++ {
			var want [][]any
			for _, id := range all {
				if model[id][1] == g {
					want = append(want, model[id])
				}
			}
			kvs, err := reader.ScanIndexEq("kv", "kv_grp", g)
			if err != nil {
				t.Fatal(err)
			}
			var got [][]any
			for _, kv := range kvs {
				got = append(got, kv.Row)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: ScanIndexEq grp=%d: %d rows, want %d", what, g, len(got), len(want))
			}
		}
		for trial := 0; trial < 20; trial++ {
			in := map[int64]bool{}
			var vals []any
			for n := 1 + rng.Intn(4); n > 0; n-- {
				g := int64(rng.Intn(5))
				in[g] = true
				vals = append(vals, g)
			}
			lo, hi := int64(rng.Intn(ids)), int64(rng.Intn(ids+200))
			loKey, hiKey := EncodeKey(lo), EncodeKey(hi)
			if trial%3 == 0 {
				lo, loKey, hi, hiKey = math.MinInt64, "", ids+1000, ""
			}
			want := [][]any{{"already in dst"}}
			for _, id := range all {
				if g, ok := model[id][1].(int64); ok && id >= lo && id < hi && in[g] {
					want = append(want, model[id])
				}
			}
			kvs, err := reader.AppendIndexIn([]KV{{Row: want[0]}}, "kv", "kv_grp", vals, loKey, hiKey)
			if err != nil {
				t.Fatal(err)
			}
			var got [][]any
			for _, kv := range kvs {
				got = append(got, kv.Row)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: AppendIndexIn grp in %v, [%d,%d): %d rows, want %d", what, vals, lo, hi, len(got), len(want))
			}
		}
		// The index walk: by grp, NULL first, then by key; whole, then
		// abandoned after a random number of rows.
		walk := slices.Clone(all)
		sort.SliceStable(walk, func(i, j int) bool { return CompareValues(model[walk[i]][1], model[walk[j]][1]) < 0 })
		for trial := 0; trial < 4; trial++ {
			stop := len(walk) + 1
			if trial > 0 {
				stop = rng.Intn(len(walk) + 2)
			}
			c := reader.IndexCursor("kv", "kv_grp")
			for i := 0; i < stop; i++ {
				if i == len(walk) {
					if c.Next() {
						t.Fatalf("%s: index walk: extra row %v", what, c.KV().Row)
					}
					break
				}
				want := model[walk[i]]
				if !c.Next() || !reflect.DeepEqual(c.KV().Row, want) || c.KV().Key != EncodeKey(want[0]) {
					t.Fatalf("%s: index walk row %d = %q %v, want %v (err %v)", what, i, c.KV().Key, c.KV().Row, want, c.Err())
				}
			}
			if c.Err() != nil {
				t.Fatal(c.Err())
			}
		}
	}
	check("committed", reader, readerModel)
	check("older snapshot", older, olderModel)
	older.Abort()

	// Vacuum below the reader: the chains of keys deleted before its
	// snapshot go, and so do the index entries of replaced versions. Then
	// some of those keys come back.
	e.Vacuum(reader.Snapshot())
	check("vacuumed", reader, readerModel)
	for i := 0; i < 2; i++ {
		commit(700)
	}
	newest := e.Begin()
	check("re-inserted after vacuum", newest, model)
	newest.Abort()

	// The reader's own writes, including a key above and a key below
	// everything committed, and an insert it takes back.
	model = readerModel
	for i := 0; i < 400; i++ {
		id := int64(rng.Intn(ids))
		key := EncodeKey(id)
		_, exists := model[id]
		switch {
		case !exists:
			r := []any{id, grp(), int64(-1)}
			if err := reader.Insert("kv", r); err != nil {
				t.Fatal(err)
			}
			model[id] = r
		case rng.Intn(2) == 0:
			if err := reader.Delete("kv", key); err != nil {
				t.Fatal(err)
			}
			delete(model, id)
		default:
			r := []any{id, grp(), int64(-2)}
			if err := reader.Update("kv", key, r); err != nil {
				t.Fatal(err)
			}
			model[id] = r
		}
	}
	for _, id := range []int64{-5, ids + 50} {
		r := []any{id, int64(0), int64(-3)}
		if err := reader.Insert("kv", r); err != nil {
			t.Fatal(err)
		}
		model[id] = r
	}
	check("own writes", reader, model)

	if c := reader.Cursor("nosuch", "", "", false); c.Next() || c.Err() == nil {
		t.Fatal("cursor on an unknown table yielded a row or no error")
	}
	if c := reader.IndexCursor("nosuch", "kv_grp"); c.Next() || !errors.Is(c.Err(), ErrNoTable) {
		t.Fatalf("index walk on an unknown table: err = %v", c.Err())
	}
	if c := reader.IndexCursor("kv", "nosuch"); c.Next() || !errors.Is(c.Err(), ErrNoIndex) {
		t.Fatalf("index walk on an unknown index: err = %v", c.Err())
	}
	reader.Abort()
	if c := reader.Cursor("kv", "", "", false); c.Next() || c.Err() != ErrTxnFinished {
		t.Fatalf("cursor on a finished transaction: err = %v", c.Err())
	}
	if c := reader.IndexCursor("kv", "kv_grp"); c.Next() || c.Err() != ErrTxnFinished {
		t.Fatalf("index walk on a finished transaction: err = %v", c.Err())
	}
}

// TestIndexReadOwnWritesKeyOrder moves rows into, out of and within an
// index value by the reader's own writes: the value's rows still come
// back in key order, from ScanIndexEq and from AppendIndexIn.
func TestIndexReadOwnWritesKeyOrder(t *testing.T) {
	e := kvTable(t)
	tx := e.Begin()
	for id := int64(1); id <= 9; id++ {
		if err := tx.Insert("kv", []any{id, id % 3, int64(0)}); err != nil {
			t.Fatal(err)
		}
	}
	mustCommit(t, tx)

	reader := e.Begin()
	for _, r := range [][]any{
		{int64(5), int64(0), int64(0)}, // into grp 0, between its keys
		{int64(6), int64(1), int64(0)}, // out of grp 0
		{int64(3), int64(0), int64(1)}, // within grp 0
	} {
		if err := reader.Update("kv", EncodeKey(r[0]), r); err != nil {
			t.Fatal(err)
		}
	}
	if err := reader.Insert("kv", []any{int64(0), int64(0), int64(0)}); err != nil { // a new first key
		t.Fatal(err)
	}
	ids := func(kvs []KV) []int64 {
		var out []int64
		for _, kv := range kvs {
			out = append(out, kv.Row[0].(int64))
		}
		return out
	}
	for grp, want := range [][]int64{{0, 3, 5, 9}, {1, 4, 6, 7}, {2, 8}} {
		kvs, err := reader.ScanIndexEq("kv", "kv_grp", int64(grp))
		if err != nil {
			t.Fatal(err)
		}
		if got := ids(kvs); !reflect.DeepEqual(got, want) {
			t.Errorf("ScanIndexEq grp=%d: %v, want %v", grp, got, want)
		}
	}
	kvs, err := reader.AppendIndexIn(nil, "kv", "kv_grp", []any{int64(1), int64(0), int64(1)}, EncodeKey(int64(1)), EncodeKey(int64(7)))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := ids(kvs), []int64{1, 3, 4, 5, 6}; !reflect.DeepEqual(got, want) {
		t.Errorf("AppendIndexIn grp in (1, 0, 1), ids [1,7): %v, want %v", got, want)
	}
}

// TestIndexEntryFollowsChain deletes a row, vacuums its chain away and
// inserts the same key with the same indexed value again: the index entry
// leads to the new chain, for an equality read, a keyed fetch's read and
// an index walk alike — on an index created with the table, on one
// CreateIndex backfilled over history, and after a checkpoint restore.
func TestIndexEntryFollowsChain(t *testing.T) {
	write := func(t *testing.T, e *Engine, rows ...[]any) {
		t.Helper()
		tx := e.Begin()
		for _, r := range rows {
			key := EncodeKey(r[0])
			var err error
			switch _, exists, _ := tx.Get("kv", key); {
			case len(r) == 1:
				err = tx.Delete("kv", key)
			case exists:
				err = tx.Update("kv", key, r)
			default:
				err = tx.Insert("kv", r)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		mustCommit(t, tx)
	}
	reads := func(t *testing.T, e *Engine, index string, row []any, walk ...[]any) {
		t.Helper()
		tx := e.Begin()
		defer tx.Abort()
		rowsOf := func(kvs []KV, err error) [][]any {
			t.Helper()
			if err != nil {
				t.Fatal(err)
			}
			var out [][]any
			for _, kv := range kvs {
				if kv.Key != EncodeKey(kv.Row[0]) {
					t.Fatalf("key %q does not encode row %v", kv.Key, kv.Row)
				}
				out = append(out, kv.Row)
			}
			return out
		}
		if got := rowsOf(tx.ScanIndexEq("kv", index, row[1])); !reflect.DeepEqual(got, [][]any{row}) {
			t.Errorf("index-eq read of %v: %v, want %v", row[1], got, row)
		}
		if got := rowsOf(tx.AppendIndexIn(nil, "kv", index, []any{int64(99), row[1]}, "", "")); !reflect.DeepEqual(got, [][]any{row}) {
			t.Errorf("keyed fetch of %v: %v, want %v", row[1], got, row)
		}
		var walked []KV
		c := tx.IndexCursor("kv", index)
		for c.Next() {
			walked = append(walked, c.KV())
		}
		if got := rowsOf(walked, c.Err()); !reflect.DeepEqual(got, walk) {
			t.Errorf("index walk: %v, want %v", got, walk)
		}
	}
	cycle := func(t *testing.T, e *Engine, index string) {
		t.Helper()
		other := []any{int64(2), nil, int64(0)}
		write(t, e, []any{int64(1), int64(7), int64(100)}, other)
		reads(t, e, index, []any{int64(1), int64(7), int64(100)}, other, []any{int64(1), int64(7), int64(100)})
		write(t, e, []any{int64(1)})
		e.Vacuum(e.Version())
		if n := e.tables["kv"].rows.Len(); n != 1 {
			t.Fatalf("%d chains after vacuum, want 1: the deleted row's is not dropped", n)
		}
		write(t, e, []any{int64(1), int64(7), int64(200)})
		reads(t, e, index, []any{int64(1), int64(7), int64(200)}, other, []any{int64(1), int64(7), int64(200)})
	}

	t.Run("created with the table", func(t *testing.T) {
		cycle(t, kvTable(t), "kv_grp")
	})
	t.Run("backfilled", func(t *testing.T) {
		e := kvTable(t)
		// Versions of key 1 at grp 7 and at grp 8 before the index exists.
		write(t, e, []any{int64(1), int64(7), int64(1)})
		write(t, e, []any{int64(1), int64(8), int64(2)})
		if err := e.CreateIndex("kv", IndexDef{Name: "kv_grp2", Column: "grp"}); err != nil {
			t.Fatal(err)
		}
		cycle(t, e, "kv_grp2")
	})
	t.Run("restored", func(t *testing.T) {
		src := kvTable(t)
		write(t, src, []any{int64(1), int64(7), int64(1)}, []any{int64(3), int64(7), int64(3)})
		write(t, src, []any{int64(3)})
		e := kvTable(t)
		if err := src.ScanVisible("kv", src.Version(), func(key string, v uint64, row []any) error {
			return e.RestoreRow("kv", key, row, v)
		}); err != nil {
			t.Fatal(err)
		}
		e.RestoreVersion(src.Version())
		cycle(t, e, "kv_grp")
	})
}

// TestSharedRowsNeverMutated holds rows handed out by Get, Cursor,
// ScanIndexEq, AppendIndexIn and an index walk — they are the stored
// slices, not copies — while other goroutines install and publish new
// versions of the same keys, moving them between index values and to and
// from NULL, and vacuum the old ones away, then checks every held row
// still reads as it did. Under -race a write into a shared row, or into
// an index entry a reader follows, is reported as one.
func TestSharedRowsNeverMutated(t *testing.T) {
	e := kvTable(t)
	const keys = 64
	tx := e.Begin()
	for i := int64(0); i < keys; i++ {
		if err := tx.Insert("kv", []any{i, i % 4, int64(0)}); err != nil {
			t.Fatal(err)
		}
	}
	mustCommit(t, tx)

	type held struct{ row, was []any }
	hold := func(r []any) held { return held{row: r, was: append([]any(nil), r...)} }

	const rounds = 300
	var wg sync.WaitGroup
	done := make(chan struct{})
	wg.Add(1)
	go func() { // the applier: install without publishing, then publish, then vacuum
		defer wg.Done()
		defer close(done)
		for v := uint64(2); v < 2+rounds; v++ {
			ws := &writeset.WriteSet{}
			for i := int64(0); i < 8; i++ {
				id := (int64(v)*8 + i) % keys
				var grp any = (id + int64(v)) % 4
				if (id+int64(v))%5 == 0 {
					grp = nil
				}
				ws.Items = append(ws.Items, writeset.Item{Table: "kv", Key: EncodeKey(id), Op: writeset.OpUpdate, Row: []any{id, grp, int64(v)}})
			}
			if err := e.InstallWriteSets([]*writeset.WriteSet{ws}, v); err != nil {
				t.Error(err)
				return
			}
			e.PublishVersion(v)
			if v%16 == 0 {
				// Behind the readers, or (one of them descheduled for a
				// while) under one: then its reads come back short, which
				// is vacuum's contract, not this test's subject.
				e.Vacuum(v - 8)
			}
		}
	}()
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var all []held
			for n := 0; ; n++ {
				select {
				case <-done:
					for _, h := range all {
						if !reflect.DeepEqual(h.row, h.was) {
							t.Errorf("held row changed: %v, was %v", h.row, h.was)
						}
					}
					return
				default:
				}
				rtx := e.Begin()
				if r, ok, err := rtx.Get("kv", EncodeKey(int64(n%keys))); err != nil {
					t.Error(err)
				} else if ok {
					all = append(all, hold(r))
				}
				c := rtx.Cursor("kv", "", "", n%2 == 0)
				for i := 0; i < 5 && c.Next(); i++ {
					all = append(all, hold(c.KV().Row))
				}
				kvs, err := rtx.ScanIndexEq("kv", "kv_grp", int64(g))
				if err != nil {
					t.Error(err)
				}
				for _, kv := range kvs[:min(2, len(kvs))] {
					all = append(all, hold(kv.Row))
				}
				// A keyed fetch's read: two values, key bounds, a reused buffer.
				lo, hi := EncodeKey(int64(8)), EncodeKey(int64(40))
				kvs, err = rtx.AppendIndexIn(kvs[:0], "kv", "kv_grp", []any{int64(g), int64(g + 1)}, lo, hi)
				if err != nil {
					t.Error(err)
				}
				for i, kv := range kvs {
					if kv.Key < lo || kv.Key >= hi || (i > 0 && kvs[i-1].Key >= kv.Key) {
						t.Errorf("AppendIndexIn row %d key %q out of bounds or order", i, kv.Key)
					}
					if i < 2 {
						all = append(all, hold(kv.Row))
					}
				}
				// An index walk, abandoned after a few rows, in (grp, key) order.
				w := rtx.IndexCursor("kv", "kv_grp")
				var prev KV
				for i := 0; i < 6 && w.Next(); i++ {
					kv := w.KV()
					if i > 0 {
						if o := CompareValues(prev.Row[1], kv.Row[1]); o > 0 || (o == 0 && prev.Key >= kv.Key) {
							t.Errorf("index walk: %v after %v", kv.Row, prev.Row)
						}
					}
					prev = kv
					all = append(all, hold(kv.Row))
				}
				if w.Err() != nil {
					t.Error(w.Err())
				}
				rtx.Abort()
				if len(all) > 4000 {
					all = all[2000:]
				}
			}
		}(g)
	}
	wg.Wait()

	// A transaction's own UPDATE after a read leaves the row it read, and
	// the committed version, as they were; so does writing into the slice
	// it passed to Update.
	tx = e.Begin()
	key := EncodeKey(int64(3))
	first, _, _ := tx.Get("kv", key)
	h := hold(first)
	image := append([]any(nil), first...)
	image[2] = int64(-1)
	if err := tx.Update("kv", key, image); err != nil {
		t.Fatal(err)
	}
	image[2] = int64(-99)
	second, _, _ := tx.Get("kv", key)
	if second[2] != int64(-1) {
		t.Fatalf("own update reads %v, want -1", second[2])
	}
	image[2] = int64(-2)
	if err := tx.Update("kv", key, image); err != nil {
		t.Fatal(err)
	}
	if second[2] != int64(-1) || !reflect.DeepEqual(h.row, h.was) {
		t.Fatalf("earlier reads changed: %v, %v (was %v)", second, h.row, h.was)
	}
	other := e.Begin()
	if r, _, _ := other.Get("kv", key); !reflect.DeepEqual(r, h.was) {
		t.Fatalf("committed version changed: %v, was %v", r, h.was)
	}
}
