package bench

import (
	"testing"

	"sconrep/internal/cluster"
	"sconrep/internal/core"
	"sconrep/internal/storage"
	"sconrep/internal/workload/micro"
	"sconrep/internal/workload/tpcw"
)

// BenchmarkLoad is one bulk load at the workload's default scale, on a
// fresh engine per iteration: the work Cluster.LoadData runs on replica
// 0. copy is what LoadData then does for each other replica: read a
// micro-loaded engine's image and build a fresh engine from it. cluster
// is a whole set-up as the end-to-end benchmark times it: a networked
// cluster of three replicas comes up on loopback, loads the micro data
// and is closed.
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
	b.Run("copy", func(b *testing.B) {
		src := storage.NewEngine()
		if err := micro.Load(src, micro.DefaultScale()); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			snap := src.Begin()
			img, err := snap.Image()
			snap.Abort()
			if err != nil {
				b.Fatal(err)
			}
			if err := storage.NewEngine().Build(snap.Snapshot(), img); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cluster", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c, err := cluster.NewNetworked(cluster.Config{Replicas: 3, Mode: core.Coarse, Seed: 1}, cluster.NetConfig{})
			if err != nil {
				b.Fatal(err)
			}
			err = c.LoadData(func(e *storage.Engine) error { return micro.Load(e, micro.DefaultScale()) })
			c.Close()
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}
