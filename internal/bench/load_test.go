package bench

import (
	"testing"

	"sconrep/internal/storage"
	"sconrep/internal/workload/micro"
	"sconrep/internal/workload/tpcw"
)

// BenchmarkLoad is one replica's bulk load at the workload's default
// scale, on a fresh engine per iteration: the work Cluster.LoadData
// runs on every replica at once, and most of a cluster set-up's wall
// time.
func BenchmarkLoad(b *testing.B) {
	for _, w := range []struct {
		name string
		load func(*storage.Engine) error
	}{
		{"micro", func(e *storage.Engine) error { return micro.Load(e, micro.DefaultScale()) }},
		{"tpcw", func(e *storage.Engine) error { return tpcw.Load(e, tpcw.DefaultScale()) }},
	} {
		b.Run(w.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := w.load(storage.NewEngine()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
