package replica

import (
	"fmt"
	"testing"

	"sconrep/internal/certifier"
	"sconrep/internal/storage"
	"sconrep/internal/writeset"
)

// benchBacklog is the refresh backlog each measured drain works
// through — the acceptance scenario for the group-apply hot path.
// deepBacklog is the deep sub-benchmark's: what a recovering replica's
// History backfill or a stalled drainer leaves behind.
const (
	benchBacklog = 64
	deepBacklog  = 8192
)

func benchEngine(b *testing.B) *storage.Engine {
	b.Helper()
	eng := storage.NewEngine()
	err := eng.CreateTable(&storage.Schema{
		Table:   "kv",
		Columns: []storage.Column{{Name: "k", Type: storage.TInt}, {Name: "v", Type: storage.TString}},
		Key:     []string{"k"},
	})
	if err != nil {
		b.Fatal(err)
	}
	tx := eng.Begin()
	for k := int64(0); k < 10; k++ {
		if err := tx.Insert("kv", []any{k, "init"}); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := tx.CommitLocal(); err != nil {
		b.Fatal(err)
	}
	return eng
}

// BenchmarkRefreshApply drains a refresh backlog per iteration — two
// inputs to the apply route (applyBatch):
//
//   - batched: 64 refreshes over ten keys, so eight batches of eight
//     with same-key writes inside and across them;
//   - deep: an 8192-deep backlog, keys i mod 997, delivered in one
//     Take — the regression guard for the drain staying linear in the
//     backlog's depth.
//
// No latency model is attached: the numbers are the pure hot-path
// cost.
func BenchmarkRefreshApply(b *testing.B) {
	for _, mode := range []struct {
		name    string
		backlog int
		key     func(i int) int64
	}{
		{"batched", benchBacklog, func(i int) int64 { return int64(i % 10) }},
		{"deep", deepBacklog, func(i int) int64 { return int64(i % 997) }},
	} {
		b.Run(mode.name, func(b *testing.B) {
			eng := benchEngine(b)
			fake := newFakeCert()
			r := New(Config{ID: 0}, eng, fake)
			defer r.Crash()

			// Writesets are prebuilt and reused; only the Refresh envelope
			// (version, txn id) changes per iteration. The engine links the
			// rows as handed and nothing writes into them, so one row may
			// back many versions.
			wss := make([]*writeset.WriteSet, mode.backlog)
			schema, ok := eng.Schema("kv")
			if !ok {
				b.Fatal("kv schema missing")
			}
			for i := range wss {
				row := []any{mode.key(i), fmt.Sprintf("w%d", i)}
				key, err := schema.KeyOf(row)
				if err != nil {
					b.Fatal(err)
				}
				wss[i] = &writeset.WriteSet{Items: []writeset.Item{
					{Table: "kv", Key: key, Op: writeset.OpUpdate, Row: row},
				}}
			}
			refs := make([]certifier.Refresh, mode.backlog)

			b.ReportAllocs()
			b.ResetTimer()
			v := eng.Version()
			for i := 0; i < b.N; i++ {
				for j := range refs {
					v++
					refs[j] = certifier.Refresh{TxnID: v, Version: v, Origin: -1, WS: wss[j]}
				}
				fake.queue.Put(refs...)
				r.mu.Lock()
				for eng.Version() < v {
					r.cond.Wait()
				}
				r.mu.Unlock()
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)*float64(mode.backlog)/b.Elapsed().Seconds(), "refreshes/s")
		})
	}
}
