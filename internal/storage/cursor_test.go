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
// abandoned scans), ScanRange and ScanIndexEq with a brute-force model:
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

// TestSharedRowsNeverMutated holds rows handed out by Get, Cursor and
// ScanIndexEq — they are the stored slices, not copies — while other
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
