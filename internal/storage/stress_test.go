package storage

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"sconrep/internal/writeset"
)

// TestConcurrentReadersWhileApplying hammers the engine with snapshot
// readers while a writer applies writesets — readers must always see a
// consistent prefix (the sum invariant holds at every snapshot).
func TestConcurrentReadersWhileApplying(t *testing.T) {
	e := NewEngine()
	if err := e.CreateTable(&Schema{
		Table:   "bal",
		Columns: []Column{{Name: "id", Type: TInt}, {Name: "amount", Type: TInt}},
		Key:     []string{"id"},
	}); err != nil {
		t.Fatal(err)
	}
	const accounts = 8
	const total = int64(1000)
	tx := e.Begin()
	for i := int64(0); i < accounts; i++ {
		amt := total / accounts
		if err := tx.Insert("bal", []any{i, amt}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tx.CommitLocal(); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var readErr error
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rtx := e.Begin()
				kvs, err := rtx.ScanAll("bal")
				rtx.Abort()
				if err != nil {
					mu.Lock()
					readErr = err
					mu.Unlock()
					return
				}
				var sum int64
				for _, kv := range kvs {
					sum += kv.Row[1].(int64)
				}
				if sum != total {
					mu.Lock()
					readErr = fmt.Errorf("snapshot sum = %d, want %d", sum, total)
					mu.Unlock()
					return
				}
			}
		}()
	}

	// Writer: moves money between random accounts via writesets, as
	// the replication path does.
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		from, to := rng.Int63n(accounts), rng.Int63n(accounts)
		if from == to {
			continue
		}
		rtx := e.Begin()
		fromRow, _, err := rtx.Get("bal", EncodeKey(from))
		if err != nil {
			t.Fatal(err)
		}
		toRow, _, _ := rtx.Get("bal", EncodeKey(to))
		amt := int64(1)
		if fromRow[1].(int64) < amt {
			rtx.Abort()
			continue
		}
		ws := &writeset.WriteSet{Items: []writeset.Item{
			{Table: "bal", Key: EncodeKey(from), Op: writeset.OpUpdate, Row: []any{from, fromRow[1].(int64) - amt}},
			{Table: "bal", Key: EncodeKey(to), Op: writeset.OpUpdate, Row: []any{to, toRow[1].(int64) + amt}},
		}}
		rtx.Abort()
		if err := e.ApplyWriteSet(ws, e.Version()+1); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if readErr != nil {
		t.Fatal(readErr)
	}
}

// TestVacuumConcurrentWithReads prunes on every install while readers
// hold snapshots: each reader scans the table twice with commits
// landing in between, and both scans must return the 32 rows its
// snapshot saw — version 1 inserted them at 0 and every later commit
// added 1 to one row, so they sum to the snapshot minus 1.
func TestVacuumConcurrentWithReads(t *testing.T) {
	e := NewEngine()
	_ = e.CreateTable(&Schema{
		Table:   "kv",
		Columns: []Column{{Name: "k", Type: TInt}, {Name: "v", Type: TInt}},
		Key:     []string{"k"},
	})
	tx := e.Begin()
	for k := int64(0); k < 32; k++ {
		_ = tx.Insert("kv", []any{k, int64(0)})
	}
	if _, err := tx.CommitLocal(); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rtx := e.Begin()
				for pass := 0; pass < 2; pass++ {
					rows, err := rtx.ScanAll("kv")
					var sum int64
					for _, kv := range rows {
						sum += kv.Row[1].(int64)
					}
					if err != nil || len(rows) != 32 || sum != int64(rtx.Snapshot())-1 {
						t.Errorf("scan %d at snapshot %d: %d rows summing to %d (err %v), want 32 summing to %d",
							pass, rtx.Snapshot(), len(rows), sum, err, rtx.Snapshot()-1)
						rtx.Abort()
						return
					}
					runtime.Gosched()
				}
				rtx.Abort()
			}
		}()
	}
	for i := 0; i < 200; i++ {
		utx := e.Begin()
		k := EncodeKey(int64(i % 32))
		row, _, _ := utx.Get("kv", k)
		_ = utx.Update("kv", k, []any{int64(i % 32), row[1].(int64) + 1})
		if _, err := utx.CommitLocal(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if h, v := e.Horizon(), e.Version(); h != v {
		t.Fatalf("horizon %d with every reader ended, want the version %d", h, v)
	}
}

// BenchmarkApplyWriteSet measures the replication hot path.
func BenchmarkApplyWriteSet(b *testing.B) {
	e := NewEngine()
	_ = e.CreateTable(&Schema{
		Table:   "kv",
		Columns: []Column{{Name: "k", Type: TInt}, {Name: "v", Type: TString}},
		Key:     []string{"k"},
	})
	tx := e.Begin()
	for k := int64(0); k < 1000; k++ {
		_ = tx.Insert("kv", []any{k, "init"})
	}
	if _, err := tx.CommitLocal(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := int64(i % 1000)
		ws := &writeset.WriteSet{Items: []writeset.Item{
			{Table: "kv", Key: EncodeKey(k), Op: writeset.OpUpdate, Row: []any{k, "updated"}},
		}}
		if err := e.ApplyWriteSet(ws, e.Version()+1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScanRange measures range-scan throughput (rows/op reported
// via custom metric).
func BenchmarkScanRange(b *testing.B) {
	e := NewEngine()
	_ = e.CreateTable(&Schema{
		Table:   "kv",
		Columns: []Column{{Name: "k", Type: TInt}, {Name: "v", Type: TInt}},
		Key:     []string{"k"},
	})
	tx := e.Begin()
	for k := int64(0); k < 10000; k++ {
		_ = tx.Insert("kv", []any{k, k})
	}
	if _, err := tx.CommitLocal(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rtx := e.Begin()
		kvs, err := rtx.ScanRange("kv", EncodeKey(int64(1000)), EncodeKey(int64(2000)))
		rtx.Abort()
		if err != nil || len(kvs) != 1000 {
			b.Fatalf("scan = %d rows, %v", len(kvs), err)
		}
	}
}
