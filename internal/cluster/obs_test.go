package cluster

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"sconrep/internal/core"
	"sconrep/internal/metrics"
	"sconrep/internal/obs"
	"sconrep/internal/obs/dtrace"
)

// TestClusterObservability drives an instrumented FSC cluster and
// checks the exposition end-to-end: the replica gauges named by the
// paper's version accounting (Vlocal, per-table Vt, refresh backlog),
// the Figure 6 sync-delay histogram, certifier/LB counters, and at
// least one complete per-transaction trace in §V-A stage order.
func TestClusterObservability(t *testing.T) {
	c := newCluster(t, Config{Replicas: 3, Mode: core.Fine, Seed: 21})
	reg := obs.NewRegistry()
	tr := obs.NewTraceRecorder(256)
	c.EnableObs(reg, tr)

	runMixedLoad(t, c, 4, 20)

	var sb strings.Builder
	reg.WritePrometheus(&sb)
	text := sb.String()

	for _, want := range []string{
		"sconrep_replica_applied_version{replica=\"0\"}",
		"sconrep_replica_table_version{replica=\"0\",table=\"counter\"}",
		"sconrep_replica_refresh_queue_depth{replica=\"0\"}",
		"sconrep_sync_delay_seconds_bucket{replica=\"0\",le=\"+Inf\"}",
		"sconrep_sync_delay_seconds_count{replica=\"0\"}",
		"sconrep_replica_commits_total",
		"sconrep_certifier_version",
		"sconrep_certifier_commits_total",
		"sconrep_lb_routed_total",
		"sconrep_lb_vsystem",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if t.Failed() {
		t.Fatalf("exposition:\n%s", text)
	}

	// The sessions closed with the ends they held; once the gateway's
	// are delivered too, no snapshot is open and no replica's horizon
	// lags its version.
	deadline := time.Now().Add(5 * time.Second)
	for {
		c.FlushEnds()
		var sb strings.Builder
		reg.WritePrometheus(&sb)
		stuck := ""
		for i := 0; i < c.NumReplicas(); i++ {
			if line := fmt.Sprintf("sconrep_replica_gc_horizon_lag{replica=\"%d\"} 0\n", i); !strings.Contains(sb.String(), line) {
				stuck = line
			}
		}
		if stuck == "" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("exposition lacks %q with every session closed:\n%s", stuck, sb.String())
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Vlocal on every replica must have advanced past the bootstrap
	// version: the load committed updates and FSC refreshes them.
	for i := 0; i < c.NumReplicas(); i++ {
		if v := c.Replica(i).Version(); v == 0 {
			t.Errorf("replica %d: Vlocal still 0 after load", i)
		}
	}

	traces := tr.Recent(0)
	if len(traces) == 0 {
		t.Fatal("no traces recorded")
	}

	// Stage order within a trace must follow §V-A: Version ≤ Queries ≤
	// Certify ≤ Sync ≤ Commit ≤ Global (each stage optional, but never
	// out of order), with non-overlapping spans.
	rank := map[string]int{}
	for i, s := range metrics.Stages {
		rank[s.String()] = i
	}
	sawCommitted := false
	for _, trc := range traces {
		if trc.Outcome == "commit" && !trc.ReadOnly && trc.CommitVersion > 0 {
			sawCommitted = true
		}
		prevRank, prevEnd := -1, int64(0)
		var sumUs int64
		named := map[string]bool{}
		for _, sp := range trc.Stages {
			named[sp.Stage] = true
			sumUs += sp.DurationUs
			r, ok := rank[sp.Stage]
			if !ok {
				t.Fatalf("txn %d: unknown stage %q", trc.TxnID, sp.Stage)
			}
			if r < prevRank {
				t.Fatalf("txn %d: stage %s out of §V-A order in %v", trc.TxnID, sp.Stage, trc.Stages)
			}
			if sp.StartUs < prevEnd {
				t.Fatalf("txn %d: stage %s overlaps previous span in %v", trc.TxnID, sp.Stage, trc.Stages)
			}
			prevRank, prevEnd = r, sp.StartUs+sp.DurationUs
		}
		// No tracer is attached (EnableObs only): the stages come from the
		// replica's own timeline, under the names the end-to-end benchmark
		// matches on. Names, not durations — a 1 µs commit truncates to 0.
		if trc.Outcome == "commit" && (!named["Version"] || !named["Queries"] || !named["Commit"]) {
			t.Errorf("txn %d: committed trace lacks Version/Queries/Commit: %v", trc.TxnID, trc.Stages)
		}
		if trc.Outcome == "commit" && !trc.ReadOnly && !(named["Certify"] && named["Sync"]) {
			t.Errorf("txn %d: committed update lacks Certify/Sync: %v", trc.TxnID, trc.Stages)
		}
		if trc.TotalUs < sumUs {
			t.Errorf("txn %d: total %d µs < stage sum %d µs in %v", trc.TxnID, trc.TotalUs, sumUs, trc.Stages)
		}
	}
	if !sawCommitted {
		t.Fatal("no committed update transaction among recorded traces")
	}
}

// TestClusterObsDisabledIsFree: without EnableObs, the replica's obs
// pointer stays nil and every hook is a no-op — the cluster behaves
// identically and no instruments exist to scrape.
func TestClusterObsDisabledIsFree(t *testing.T) {
	c := newCluster(t, Config{Replicas: 2, Mode: core.Coarse, Seed: 22})
	s := c.NewSession()
	for i := 0; i < 5; i++ {
		tx := mustBegin(t, s, "bumpCounter")
		if _, err := tx.Exec(bumpCounter, int64(i)); err != nil {
			tx.Abort()
			continue
		}
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	var sb strings.Builder
	obs.NewRegistry().WritePrometheus(&sb)
	if sb.Len() != 0 {
		t.Fatalf("fresh registry not empty: %q", sb.String())
	}
}

// TestBeginTablesRouteSpan: a transaction begun by table-set (the
// paper's footnote 1) is routed through the same traced dispatch as one
// begun by name, on a cluster built by New and by NewNetworked: its
// trace holds an lb.route span under the client's root, annotated with
// the replica chosen and the start bound — here the version of the
// update that last wrote the table — and replica.txn joins the same
// trace.
func TestBeginTablesRouteSpan(t *testing.T) {
	for _, tc := range []struct {
		name, table, update, read string
		mk                        func(*testing.T) *Cluster
	}{
		{"New", "counter", `UPDATE counter SET n = 7 WHERE id = 1`, `SELECT n FROM counter WHERE id = 1`,
			func(t *testing.T) *Cluster { return newCluster(t, Config{Replicas: 2, Mode: core.Fine, Seed: 5}) }},
		{"NewNetworked", "kv", `UPDATE kv SET v = 'x' WHERE k = 1`, `SELECT v FROM kv WHERE k = 1`,
			func(t *testing.T) *Cluster { return newNetCluster(t, core.Fine) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := tc.mk(t)
			colls := c.EnableDTrace(256)
			s := c.NewSession()
			defer s.Close()
			run := func(stmt string) (*Tx, uint64) {
				t.Helper()
				tx, err := s.BeginTables([]string{tc.table})
				if err != nil {
					t.Fatal(err)
				}
				if _, err := tx.ExecSQL(stmt); err != nil {
					t.Fatal(err)
				}
				res, err := tx.Commit()
				if err != nil {
					t.Fatal(err)
				}
				return tx, res.Version
			}
			_, wrote := run(tc.update)
			tx, _ := run(tc.read)

			// A networked read's commit sends nothing: replica.txn ends when
			// the end reaches the replica — on the session's next request, or
			// one probe period on — not when Commit returns.
			byName := map[string]dtrace.Span{}
			for deadline := time.Now().Add(5 * time.Second); byName["replica.txn"].ID.IsZero() && time.Now().Before(deadline); time.Sleep(time.Millisecond) {
				for _, coll := range colls {
					for _, sp := range coll.Trace(tx.Trace()) {
						byName[sp.Name] = sp
					}
				}
			}
			root, route, rspan := byName["client.txn"], byName["lb.route"], byName["replica.txn"]
			if root.ID.IsZero() || route.ID.IsZero() || rspan.ID.IsZero() {
				t.Fatalf("trace lacks client.txn / lb.route / replica.txn: %v", byName)
			}
			if route.Parent != root.ID {
				t.Errorf("lb.route parent = %s, want the client root %s", route.Parent, root.ID)
			}
			if got, want := route.Attrs["min_version"], strconv.FormatUint(wrote, 10); got != want {
				t.Errorf("lb.route min_version = %q, want %q (the table's last write)", got, want)
			}
			if route.Attrs["replica"] == "" || route.Attrs["replica"] != rspan.Attrs["replica"] {
				t.Errorf("lb.route replica = %q, replica.txn ran on %q", route.Attrs["replica"], rspan.Attrs["replica"])
			}
		})
	}
}

// TestTableVersionGaugeFollowsRestart: sconrep_replica_table_version
// reads the live engine when scraped, so once a disk restart has swapped
// a replica's engine the gauge reports the recovered engine's table
// versions, the commits made while the replica was down included.
func TestTableVersionGaugeFollowsRestart(t *testing.T) {
	c := newDurableCluster(t, Config{Replicas: 2, Mode: core.Fine, Seed: 4, DataDir: t.TempDir()})
	reg := obs.NewRegistry()
	c.EnableObs(reg, nil)
	gauge := func() uint64 {
		t.Helper()
		var sb strings.Builder
		reg.WritePrometheus(&sb)
		const series = `sconrep_replica_table_version{replica="1",table="counter"} `
		for _, line := range strings.Split(sb.String(), "\n") {
			if v, ok := strings.CutPrefix(line, series); ok {
				f, err := strconv.ParseFloat(v, 64)
				if err != nil {
					t.Fatal(err)
				}
				return uint64(f)
			}
		}
		t.Fatalf("no %s in the exposition", series)
		return 0
	}
	s := c.NewSession()
	defer s.Close()
	bumpN(t, s, 3)
	waitAllAt(t, c, c.Certifier().Version())
	c.KillReplica(1)
	bumpN(t, s, 4)
	want := c.Certifier().TableVersions()["counter"]
	if got := gauge(); got >= want {
		t.Fatalf("killed replica's gauge at %d, want below %d", got, want)
	}
	if err := c.RestartReplica(1); err != nil {
		t.Fatal(err)
	}
	waitAllAt(t, c, c.Certifier().Version())
	if got := gauge(); got != want {
		t.Fatalf("gauge after the restart = %d, want the recovered engine's %d", got, want)
	}
}

// exposition renders reg in Prometheus text format.
func exposition(reg *obs.Registry) string {
	var sb strings.Builder
	reg.WritePrometheus(&sb)
	return sb.String()
}

// seriesValue is the value of one series (name plus rendered labels) in
// an exposition.
func seriesValue(text, series string) (float64, bool) {
	for _, line := range strings.Split(text, "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			return f, err == nil
		}
	}
	return 0, false
}

// TestWireRequestsPerReplica: EnableObs registers every node's wire
// request counter, and the replica servers sharing the one registry keep
// apart by their replica label: each replica that served an exec shows
// its own series.
func TestWireRequestsPerReplica(t *testing.T) {
	c := newCluster(t, Config{Replicas: 3, Mode: core.Coarse, Seed: 23})
	reg := obs.NewRegistry()
	c.EnableObs(reg, nil)
	runMixedLoad(t, c, 4, 20)

	text := exposition(reg)
	served := 0
	for i := 0; i < c.NumReplicas(); i++ {
		if routed, _ := seriesValue(text, fmt.Sprintf(`sconrep_lb_routed_total{replica="%d"}`, i)); routed == 0 {
			continue
		}
		served++
		series := fmt.Sprintf(`sconrep_wire_requests_total{link="replica",replica="%d",op="exec"}`, i)
		if execs, _ := seriesValue(text, series); execs == 0 {
			t.Errorf("replica %d was routed transactions, but %s reads %v", i, series, execs)
		}
	}
	if served < 2 {
		t.Errorf("%d replicas served the load, want at least 2 to tell their series apart", served)
	}
	for _, series := range []string{
		`sconrep_wire_requests_total{link="gateway",op="exec"}`,
		`sconrep_wire_requests_total{link="certifier",op="certify"}`,
	} {
		if n, _ := seriesValue(text, series); n == 0 {
			t.Errorf("%s reads %v, want > 0", series, n)
		}
	}
	if t.Failed() {
		t.Logf("exposition:\n%s", text)
	}
}

// TestRecoveryHistogramFollowsRestart: a durable replica observes the
// recovery time of every store it opens — the one it started on, once
// EnableObs registers the histogram, and each one a disk restart opens —
// and its store gauges read the store a restart swapped in, not the
// abandoned one.
func TestRecoveryHistogramFollowsRestart(t *testing.T) {
	c := newDurableCluster(t, Config{Replicas: 2, Mode: core.Coarse, Seed: 6, DataDir: t.TempDir()})
	reg := obs.NewRegistry()
	c.EnableObs(reg, nil)
	value := func(series string) float64 {
		t.Helper()
		v, ok := seriesValue(exposition(reg), series)
		if !ok {
			t.Fatalf("no %s in the exposition", series)
		}
		return v
	}
	const (
		recoveries = `sconrep_pstore_recovery_seconds_count{replica="1"}`
		checkpoint = `sconrep_pstore_checkpoint_version{replica="1"}`
	)
	if n := value(recoveries); n != 1 {
		t.Fatalf("%s = %v before any restart, want 1 (the startup store)", recoveries, n)
	}
	s := c.NewSession()
	defer s.Close()
	bumpN(t, s, 3)
	waitAllAt(t, c, c.Certifier().Version())
	if err := c.Store(1).CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	old := c.Store(1).Stats().CheckpointVersion
	c.KillReplica(1)
	bumpN(t, s, 4)
	if err := c.RestartReplica(1); err != nil {
		t.Fatal(err)
	}
	if n := value(recoveries); n != 2 {
		t.Fatalf("%s = %v after one restart, want 2", recoveries, n)
	}
	waitAllAt(t, c, c.Certifier().Version())
	if err := c.Store(1).CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	want := c.Store(1).Stats().CheckpointVersion
	if want <= old {
		t.Fatalf("the new store's checkpoint at %d, not past the old one's %d", want, old)
	}
	if got := value(checkpoint); got != float64(want) {
		t.Fatalf("%s = %v, want the new store's %d (the abandoned store's was %d)", checkpoint, got, want, old)
	}
}
