package storage

import (
	"math"
	"math/rand"
	"reflect"
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
// abandoned scans), ScanRange, ScanIndexEq and AppendIndexIn (several
// values, one repeated, inside key bounds, after rows already in dst)
// with a brute-force model:
// a table several chunks long, history on both sides of the reader's
// snapshot, and the reader's own inserts, updates and deletes on top.
func TestCursorAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	e := kvTable(t)
	const ids = 3000
	model := map[int64][]any{} // the committed state the reader sees

	commit := func(n int, track bool) {
		tx := e.Begin()
		for i := 0; i < n; i++ {
			id := int64(rng.Intn(ids))
			key := EncodeKey(id)
			_, exists, _ := tx.Get("kv", key)
			switch {
			case !exists:
				r := []any{id, int64(rng.Intn(5)), int64(rng.Intn(1000))}
				if err := tx.Insert("kv", r); err != nil {
					t.Fatal(err)
				}
				if track {
					model[id] = r
				}
			case rng.Intn(3) == 0:
				if err := tx.Delete("kv", key); err != nil {
					t.Fatal(err)
				}
				if track {
					delete(model, id)
				}
			default:
				r := []any{id, int64(rng.Intn(5)), int64(rng.Intn(1000))}
				if err := tx.Update("kv", key, r); err != nil {
					t.Fatal(err)
				}
				if track {
					model[id] = r
				}
			}
		}
		mustCommit(t, tx)
	}
	for i := 0; i < 6; i++ {
		commit(700, true)
	}
	reader := e.Begin()
	for i := 0; i < 3; i++ {
		commit(700, false) // after the snapshot: invisible
	}

	check := func(what string) {
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
				if id >= lo && id < hi && in[model[id][1].(int64)] {
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
	}
	check("committed")

	// The reader's own writes, including a key above and a key below
	// everything committed, and an insert it takes back.
	for i := 0; i < 400; i++ {
		id := int64(rng.Intn(ids))
		key := EncodeKey(id)
		_, exists := model[id]
		switch {
		case !exists:
			r := []any{id, int64(rng.Intn(5)), int64(-1)}
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
			r := []any{id, int64(rng.Intn(5)), int64(-2)}
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
	check("own writes")

	if c := reader.Cursor("nosuch", "", "", false); c.Next() || c.Err() == nil {
		t.Fatal("cursor on an unknown table yielded a row or no error")
	}
	reader.Abort()
	if c := reader.Cursor("kv", "", "", false); c.Next() || c.Err() != ErrTxnFinished {
		t.Fatalf("cursor on a finished transaction: err = %v", c.Err())
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

// TestSharedRowsNeverMutated holds rows handed out by Get, Cursor,
// ScanIndexEq and AppendIndexIn — they are the stored slices, not
// copies — while other
// goroutines install and publish new versions of the same keys and
// vacuum the old ones away, then checks every held row still reads as
// it did. Under -race a write into a shared row is reported as one.
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
				ws.Items = append(ws.Items, writeset.Item{Table: "kv", Key: EncodeKey(id), Op: writeset.OpUpdate, Row: []any{id, id % 4, int64(v)}})
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
