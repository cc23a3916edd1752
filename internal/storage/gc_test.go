package storage

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"sconrep/internal/writeset"
)

// gcTables creates the differential test's two tables on e: kv, whose
// grp column (NULL now and then) carries an index, and tags, which has
// none.
func gcTables(t *testing.T, e *Engine) {
	t.Helper()
	for _, s := range []*Schema{
		{
			Table:   "kv",
			Columns: []Column{{Name: "k", Type: TInt}, {Name: "grp", Type: TInt}, {Name: "v", Type: TInt}},
			Key:     []string{"k"},
			Indexes: []IndexDef{{Name: "kv_grp", Column: "grp"}},
		},
		{
			Table:   "tags",
			Columns: []Column{{Name: "k", Type: TInt}, {Name: "s", Type: TString}},
			Key:     []string{"k"},
		},
	} {
		if err := e.CreateTable(s); err != nil {
			t.Fatal(err)
		}
	}
}

// gcDump renders everything tx reads: both tables in key order, the
// index walk and one equality read per group.
func gcDump(tx *Txn) (string, error) {
	var b strings.Builder
	for _, table := range []string{"kv", "tags"} {
		kvs, err := tx.ScanAll(table)
		if err != nil {
			return "", err
		}
		fmt.Fprintln(&b, table, kvs)
	}
	c := tx.IndexCursor("kv", "kv_grp")
	for c.Next() {
		fmt.Fprint(&b, c.KV().Row)
	}
	if c.Err() != nil {
		return "", c.Err()
	}
	for g := int64(0); g < 4; g++ {
		kvs, err := tx.ScanIndexEq("kv", "kv_grp", g)
		if err != nil {
			return "", err
		}
		fmt.Fprintln(&b, "grp", g, kvs)
	}
	return b.String(), nil
}

// gcCheckChains checks the engine's collection invariants after a run:
// a chain holds at most one version at or below the horizon its key was
// last installed under (lastH), a chain whose tombstone head is at or
// below the horizon of the last run into its table (tableH) has left
// the tree, and every index entry counts exactly the linked versions of
// its row that carry its value.
func gcCheckChains(t *testing.T, e *Engine, lastH map[string]uint64, tableH map[string]uint64) {
	t.Helper()
	for name, tb := range e.tables {
		tb.mu.RLock()
		want := make(map[string]map[string]int) // index → entry → linked versions
		for ixName := range tb.indexes {
			want[ixName] = make(map[string]int)
		}
		it := tb.rows.ScanAll()
		for it.Next() {
			pk, ch := it.Key(), it.Value().(*chain)
			head := ch.head.Load()
			if h, ok := tableH[name]; ok && head.deleted && head.version <= h {
				t.Errorf("%s[%q]: tombstone head %d at or below the horizon %d is still in the tree", name, pk, head.version, h)
			}
			below := 0
			for v := head; v != nil; v = v.prev.Load() {
				if h, ok := lastH[name+"/"+pk]; ok && v.version <= h {
					below++
				}
				if v.deleted {
					continue
				}
				for ixName, ix := range tb.indexes {
					want[ixName][entryKey(v.row[ix.col], pk)]++
				}
			}
			if below > 1 {
				t.Errorf("%s[%q]: %d versions at or below the horizon %d", name, pk, below, lastH[name+"/"+pk])
			}
		}
		for ixName, ix := range tb.indexes {
			got := make(map[string]int)
			it := ix.tree.ScanAll()
			for it.Next() {
				got[it.Key()] = it.Value().(*ixEntry).n
			}
			if fmt.Sprint(got) != fmt.Sprint(want[ixName]) {
				t.Errorf("%s.%s: entry counts %v, linked versions %v", name, ixName, got, want[ixName])
			}
		}
		tb.mu.RUnlock()
	}
}

// TestPruneMatchesUnprunedEngine is the engine's differential test for
// collection. Random runs of inserts, updates and deletes go to two
// engines: the one under test, where random snapshots open and close
// between runs, and a reference kept unpruned by a transaction held open
// at snapshot 0. After every run, every open snapshot must read on the
// pruned engine what the reference reads at that version, and the
// collection invariants must hold (gcCheckChains). Two readers meanwhile
// begin at the latest version and compare with the reference as well,
// so under -race a prune that races a reader's chain walk is reported.
func TestPruneMatchesUnprunedEngine(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	e, ref := NewEngine(), NewEngine()
	gcTables(t, e)
	gcTables(t, ref)
	hold := ref.Begin()
	defer hold.Abort()

	const keys = 24
	live := map[string]map[int64]bool{"kv": {}, "tags": {}}
	item := func() writeset.Item {
		table := "kv"
		if rng.Intn(3) == 0 {
			table = "tags"
		}
		k := int64(rng.Intn(keys))
		key := EncodeKey(k)
		if live[table][k] && rng.Intn(3) == 0 {
			delete(live[table], k)
			return writeset.Item{Table: table, Key: key, Op: writeset.OpDelete}
		}
		op := writeset.OpInsert
		if live[table][k] {
			op = writeset.OpUpdate
		}
		live[table][k] = true
		if table == "tags" {
			return writeset.Item{Table: table, Key: key, Op: op, Row: []any{k, fmt.Sprint("s", rng.Intn(5))}}
		}
		var grp any = int64(rng.Intn(4))
		if rng.Intn(6) == 0 {
			grp = nil
		}
		return writeset.Item{Table: table, Key: key, Op: op, Row: []any{k, grp, int64(rng.Intn(1000))}}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				tx := e.Begin()
				got, err := gcDump(tx)
				if err == nil {
					var rtx *Txn
					if rtx, err = ref.BeginAt(tx.Snapshot()); err == nil {
						var want string
						want, err = gcDump(rtx)
						rtx.Abort()
						if err == nil && got != want {
							err = fmt.Errorf("snapshot %d reads\n%s\nreference reads\n%s", tx.Snapshot(), got, want)
						}
					}
				}
				tx.Abort()
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	stopReaders := sync.OnceFunc(func() {
		close(stop)
		wg.Wait()
	})
	defer stopReaders()

	var open []*Txn
	lastH, tableH := make(map[string]uint64), make(map[string]uint64)
	for run := 0; run < 300 && !t.Failed(); run++ {
		// Snapshots open and close between runs.
		for i := 0; i < len(open); i++ {
			if rng.Intn(4) == 0 {
				open[i].Abort()
				open = append(open[:i], open[i+1:]...)
				i--
			}
		}
		if rng.Intn(2) == 0 {
			open = append(open, e.Begin())
		}

		wss := make([]*writeset.WriteSet, 1+rng.Intn(3))
		for i := range wss {
			ws := &writeset.WriteSet{}
			for j := 1 + rng.Intn(3); j > 0; j-- {
				ws.Items = append(ws.Items, item())
			}
			wss[i] = ws
		}
		at := ref.Version() + 1
		if err := ref.ApplyWriteSetBatch(wss, at); err != nil {
			t.Fatal(err)
		}
		h := e.Horizon()
		switch rng.Intn(3) {
		case 0:
			if err := e.ApplyWriteSetBatch(wss, at); err != nil {
				t.Fatal(err)
			}
		case 1:
			if err := e.InstallWriteSets(wss, at); err != nil {
				t.Fatal(err)
			}
			e.PublishVersion(at + uint64(len(wss)) - 1)
		default:
			for i, ws := range wss {
				if err := e.ApplyWriteSet(ws, at+uint64(i)); err != nil {
					t.Fatal(err)
				}
			}
		}
		for _, ws := range wss {
			for _, it := range ws.Items {
				lastH[it.Table+"/"+it.Key] = h
				tableH[it.Table] = h
			}
		}
		for _, tx := range open {
			got, err := gcDump(tx)
			if err != nil {
				t.Fatal(err)
			}
			rtx, err := ref.BeginAt(tx.Snapshot())
			if err != nil {
				t.Fatal(err)
			}
			want, err := gcDump(rtx)
			rtx.Abort()
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("run %d, snapshot %d reads\n%s\nreference reads\n%s", run, tx.Snapshot(), got, want)
			}
		}
		gcCheckChains(t, e, lastH, tableH)
	}
	for _, tx := range open {
		tx.Abort()
	}
	stopReaders()
	if h, v := e.Horizon(), e.Version(); h != v {
		t.Fatalf("horizon %d with every snapshot closed, want the version %d", h, v)
	}
}

// TestCommitLocalConflictsWithConcurrentDelete runs concurrent
// CommitLocal writers that update, delete and re-insert a few rows with
// no other snapshot open, so each commit's own snapshot is what holds
// the horizon. First committer wins must hold for every committed
// write: no other write of its row committed after its snapshot and
// before it. In particular an update of a row deleted after its
// snapshot fails with ErrConflict even when a third writer's install
// has meanwhile passed the delete's tombstone.
func TestCommitLocalConflictsWithConcurrentDelete(t *testing.T) {
	e := NewEngine()
	gcTables(t, e)
	const keys = 4
	for k := int64(0); k < keys; k++ {
		tx := e.Begin()
		if err := tx.Insert("kv", []any{k, int64(0), int64(0)}); err != nil {
			t.Fatal(err)
		}
		if _, err := tx.CommitLocal(); err != nil {
			t.Fatal(err)
		}
	}

	type commit struct {
		key               string
		op                string
		snapshot, version uint64
	}
	var (
		mu      sync.Mutex
		commits []commit
		wg      sync.WaitGroup
	)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 400; i++ {
				k := int64(rng.Intn(keys))
				key := EncodeKey(k)
				tx := e.Begin()
				row, ok, err := tx.Get("kv", key)
				op := "insert"
				switch {
				case err != nil:
				case !ok:
					err = tx.Insert("kv", []any{k, int64(0), int64(0)})
				case rng.Intn(2) == 0:
					op = "delete"
					err = tx.Delete("kv", key)
				default:
					op = "update"
					err = tx.Update("kv", key, []any{k, row[1], row[2].(int64) + 1})
				}
				if err != nil {
					tx.Abort()
					t.Error(err)
					return
				}
				v, err := tx.CommitLocal()
				if errors.Is(err, ErrConflict) {
					continue
				}
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				commits = append(commits, commit{key: key, op: op, snapshot: tx.Snapshot(), version: v})
				mu.Unlock()
			}
		}(int64(g))
	}
	wg.Wait()

	byKey := make(map[string][]commit)
	for _, c := range commits {
		byKey[c.key] = append(byKey[c.key], c)
	}
	for key, cs := range byKey {
	row:
		for _, c := range cs {
			for _, o := range cs {
				if o.version > c.snapshot && o.version < c.version {
					t.Errorf("row %q: %s at %d (snapshot %d) committed over the %s at %d", key, c.op, c.version, c.snapshot, o.op, o.version)
					break row
				}
			}
		}
	}
	if h, v := e.Horizon(), e.Version(); h != v {
		t.Fatalf("horizon %d with every transaction ended, want the version %d", h, v)
	}
}
