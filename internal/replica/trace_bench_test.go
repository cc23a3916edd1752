package replica

import (
	"fmt"
	"testing"

	"sconrep/internal/certifier"
	"sconrep/internal/obs/dtrace"
	"sconrep/internal/sql"
)

// BenchmarkTraceOverhead measures the full client commit path —
// Begin, one UPDATE, Commit through a local certifier, refresh apply —
// with the distributed tracer disabled (the production default: every
// hook is one atomic load and a nil check) and enabled (spans minted
// at the replica, certifier, and refresh layers). The disabled
// configuration is the regression guard: it must track the pre-tracing
// hot path within noise.
func BenchmarkTraceOverhead(b *testing.B) {
	for _, mode := range []struct {
		name    string
		tracing bool
	}{
		{"disabled", false},
		{"enabled", true},
	} {
		b.Run(mode.name, func(b *testing.B) {
			eng := benchEngine(b)
			cert := certifier.New()
			r := New(Config{ID: 0}, eng, Local(cert))
			defer r.Crash()
			if err := cert.StartAt(eng.Version()); err != nil {
				b.Fatal(err)
			}
			var tr *dtrace.Tracer
			if mode.tracing {
				coll := dtrace.NewCollector(4096)
				tr = dtrace.New("bench-client", coll)
				r.EnableTracing(dtrace.New("bench-replica", coll))
				cert.EnableTracing(dtrace.New("bench-certifier", coll))
			}
			p, err := sql.Prepare(`UPDATE kv SET v = ? WHERE k = ?`)
			if err != nil {
				b.Fatal(err)
			}

			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				root := tr.StartRoot("client.txn")
				sc := root.Context()
				tx, err := r.Begin(0, &sc)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := tx.Exec(p, fmt.Sprintf("v%d", i), int64(i%10)); err != nil {
					b.Fatal(err)
				}
				if _, err := tx.Commit(false); err != nil {
					b.Fatal(err)
				}
				root.End()
			}
		})
	}
}
