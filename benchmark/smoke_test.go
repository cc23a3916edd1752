package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// plausible is the widest range a metric of each unit can take on any
// host; a value outside it is an instrument bug, not a slow machine.
var plausible = map[string][2]float64{
	"ms":    {0, 60e3},
	"s":     {0, 60},
	"us":    {0, 60e6},
	"1/s":   {0, 1e9},
	"count": {0, 1e6},
	"bytes": {0, 1e8},
	"kb":    {-1e6, 1e6}, // the retained heap may shrink
	"frac":  {-10, 1},    // the traced run may be the faster one
	"ratio": {0, 1e6},
}

// alwaysPositive are the per-layer metrics every workload must yield:
// the layer replay gives each its own input.
var alwaysPositive = []string{
	"wire.rpc_rtt_us", "wire.stream_refresh_per_s", "lb.dispatch_us", "sql.parse_us",
	"sql.exec_read_us", "sql.exec_update_us", "storage.commit_local_us",
	"storage.apply_batch_us_per_ws", "storage.install_us_per_ws", "storage.read_us_hot_row",
	"writeset.graph_build_us_per_ws", "certifier.certify_us", "certifier.certify_per_s",
	"certifier.certify_forced_us_c1", "certifier.certify_forced_us_c2",
	"wal.append_us", "wal.append_forced_us", "wal.bytes_per_record",
	"replica.txn_us", "replica.apply_refresh_per_s",
	"pstore.log_applied_us_per_ws", "pstore.checkpoint_ms", "pstore.wal_bytes_per_commit",
	"wire.client_msgs_per_txn", "wire.client_bytes_per_txn", "wire.replica_bytes_per_txn",
	"lb.route_self_us", "replica.exec_self_us", "replica.commit_us",
	"process.alloc_kb_per_txn",
}

// TestSmoke runs all four workloads at smoke size on a second seed:
// the correctness gate must pass and every named metric must be
// present, finite and plausible.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four clusters")
	}
	dir := t.TempDir()
	for _, sp := range specs {
		cfg := smokeConfig(2, filepath.Join(dir, sp.name))
		cfg.layers = true
		cfg.traceOut = filepath.Join(dir, sp.name+".jsonl")
		r, err := runWorkload(sp, cfg)
		if err != nil {
			t.Fatalf("%v", err)
		}
		if r.attempted < 1 || r.failed != 0 {
			t.Errorf("%s: attempted %d, failed %d", sp.name, r.attempted, r.failed)
		}
		check := func(defs []metricDef, vals map[string]float64) {
			if len(vals) != len(defs) {
				t.Errorf("%s: %d metrics reported, %d defined", sp.name, len(vals), len(defs))
			}
			for _, d := range defs {
				v, ok := vals[d.Name]
				if !ok {
					t.Errorf("%s: metric %s missing", sp.name, d.Name)
					continue
				}
				rng := plausible[d.Unit]
				if math.IsNaN(v) || math.IsInf(v, 0) || v < rng[0] || v > rng[1] {
					t.Errorf("%s: %s = %g %s is outside [%g, %g]", sp.name, d.Name, v, d.Unit, rng[0], rng[1])
				}
			}
		}
		check(endToEnd, r.e2e)
		check(perLayer, r.layer)
		for _, d := range endToEnd {
			if r.e2e[d.Name] <= 0 {
				t.Errorf("%s: end-to-end metric %s = %g, must never be 0", sp.name, d.Name, r.e2e[d.Name])
			}
		}
		for _, name := range alwaysPositive {
			if r.layer[name] <= 0 {
				t.Errorf("%s: %s = %g, want > 0", sp.name, name, r.layer[name])
			}
		}
		// At smoke size the replica's start-up dominates the apply rate,
		// so the headroom is only checked for presence here; at full
		// size it must read above 1.
		if h := r.layer["replica.apply_headroom"]; h <= 0 {
			t.Errorf("%s: replica.apply_headroom = %g, want > 0", sp.name, h)
		}
		updates := sp.tpcw || sp.updatePct > 0
		if got := r.layer["wire.cert_msgs_per_commit"]; updates == (got == 0) {
			t.Errorf("%s: wire.cert_msgs_per_commit = %g", sp.name, got)
		}
		if got := r.layer["update_p50_ms"]; updates == (got == 0) {
			t.Errorf("%s: update_p50_ms = %g", sp.name, got)
		}
		if got := r.layer["visible_all_p50_ms"]; updates == (got == 0) {
			t.Errorf("%s: visible_all_p50_ms = %g", sp.name, got)
		}
		if got := r.layer["pstore.restart_ms"]; sp.durable == (got == 0) {
			t.Errorf("%s: pstore.restart_ms = %g", sp.name, got)
		}
		checkTraceOut(t, cfg.traceOut, sp)
	}
}

// checkTraceOut verifies the -trace-out file: the benchmark's own
// spans and the cluster's, every line one span.
func checkTraceOut(t *testing.T, path string, sp spec) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("%s: %v", sp.name, err)
	}
	defer f.Close()
	byName := make(map[string]int)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("%s: trace-out line %q: %v", sp.name, sc.Text(), err)
		}
		if s.End < s.Start {
			t.Fatalf("%s: span %s ends before it starts", sp.name, s.Name)
		}
		byName[s.Node+"/"+s.Name]++
	}
	want := []string{"bench/txn", "client/client.txn", "gateway/lb.route", "replica-0/replica.txn"}
	if sp.tpcw {
		want = append(want, "bench/interaction", "bench/visible_all")
	} else {
		want = append(want, "bench/begin", "bench/exec", "bench/commit")
	}
	for _, name := range want {
		if byName[name] == 0 {
			t.Errorf("%s: trace-out holds no %s span", sp.name, name)
		}
	}
}
