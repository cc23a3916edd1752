package cluster

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"sconrep/internal/core"
	"sconrep/internal/obs"
	"sconrep/internal/obs/dtrace"
	"sconrep/internal/replica"
	"sconrep/internal/shard"
	"sconrep/internal/storage"
	"sconrep/internal/wire"
)

// loadAB creates tables a and b, one row (1, 0) each.
func loadAB(e *storage.Engine) error {
	for _, table := range []string{"a", "b"} {
		if err := e.CreateTable(&storage.Schema{Table: table, Key: []string{"id"},
			Columns: []storage.Column{{Name: "id", Type: storage.TInt}, {Name: "v", Type: storage.TInt}}}); err != nil {
			return err
		}
		tx := e.Begin()
		if err := tx.Insert(table, []any{int64(1), int64(0)}); err != nil {
			return err
		}
		if _, err := tx.CommitLocal(); err != nil {
			return err
		}
	}
	return nil
}

// staleReads runs pairs CSC write-then-read pairs on table, each
// transaction declaring its table-set, and returns how many reads did
// not see the write before them.
func staleReads(t *testing.T, client *wire.Client, table string, pairs int) int {
	t.Helper()
	stale := 0
	for i := 1; i <= pairs; i++ {
		client.Start("", []string{table}, dtrace.SpanContext{})
		if _, err := client.Exec(fmt.Sprintf(`UPDATE %s SET v = ? WHERE id = 1`, table), int64(i)); err != nil {
			t.Fatalf("write %d on %s: %v", i, table, err)
		}
		if _, _, err := client.Commit(); err != nil {
			t.Fatalf("commit %d on %s: %v", i, table, err)
		}
		client.Start("", []string{table}, dtrace.SpanContext{})
		res, err := client.Exec(fmt.Sprintf(`SELECT v FROM %s WHERE id = 1`, table))
		if err != nil {
			t.Fatalf("read %d on %s: %v", i, table, err)
		}
		if _, _, err := client.Commit(); err != nil {
			t.Fatal(err)
		}
		if res.Rows[0][0] != int64(i) {
			stale++
		}
	}
	return stale
}

// routed reads sconrep_lb_routed_total for each replica off reg.
func routed(reg *obs.Registry, replicas int) []int {
	var sb strings.Builder
	reg.WritePrometheus(&sb)
	text := sb.String()
	out := make([]int, replicas)
	for i := range out {
		prefix := fmt.Sprintf("sconrep_lb_routed_total{replica=\"%d\"} ", i)
		for _, line := range strings.Split(text, "\n") {
			if rest, ok := strings.CutPrefix(line, prefix); ok {
				fmt.Sscan(rest, &out[i])
			}
		}
	}
	return out
}

// TestGatewayLearnsShardRouting: the certifier is the only node given
// the shard map (a on shard 0, b on shard 1); three replicas serve all
// shards, {0} and {1}, and the gateway is told nothing about shards. It
// learns the map and each replica's shards from the status probe, so
// no strong read is stale and no transaction on a reaches the replica
// that never applies a's rows, nor one on b the replica without b's.
func TestGatewayLearnsShardRouting(t *testing.T) {
	ncfg := NetConfig{
		Timeouts: wire.Timeouts{Call: 5 * time.Second, Idle: 2 * time.Second},
		Backoff:  wire.Backoff{Min: 5 * time.Millisecond, Max: 100 * time.Millisecond},
	}
	smap, err := shard.New(2, map[string]int{"a": 0, "b": 1})
	if err != nil {
		t.Fatal(err)
	}
	cert, err := StartCertifier(CertifierConfig{Listen: "127.0.0.1:0", Shards: smap, Net: ncfg})
	if err != nil {
		t.Fatal(err)
	}
	defer cert.Close()
	gwCfg := GatewayConfig{Listen: "127.0.0.1:0", Mode: core.Coarse, Net: ncfg}
	for id, served := range [][]int{nil, {0}, {1}} {
		r, err := StartReplica(ReplicaConfig{
			Replica:     replica.Config{ID: id, EarlyCert: true},
			Listen:      "127.0.0.1:0",
			Certifier:   cert.Addr(),
			Bootstrap:   loadAB,
			ServeShards: served,
			Net:         ncfg,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		gwCfg.Replicas = append(gwCfg.Replicas, r.Addr())
	}
	gw, err := StartGateway(gwCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	reg := obs.NewRegistry()
	gw.EnableObs(reg)
	for deadline := time.Now().Add(10 * time.Second); gw.Balancer().LiveReplicas() < 3; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("gateway routes to %d of 3 replicas", gw.Balancer().LiveReplicas())
		}
	}
	client, err := wire.Dial(gw.Addr(), "witness", wire.WithTimeouts(ncfg.Timeouts))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	const pairs = 200
	if n := staleReads(t, client, "a", pairs); n != 0 {
		t.Errorf("%d of %d strong reads on a were stale", n, pairs)
	}
	afterA := routed(reg, 3)
	if afterA[2] != 0 {
		t.Errorf("%d transactions on a reached the replica serving shard 1 only", afterA[2])
	}
	if n := staleReads(t, client, "b", pairs); n != 0 {
		t.Errorf("%d of %d strong reads on b were stale", n, pairs)
	}
	afterB := routed(reg, 3)
	if afterB[1] != afterA[1] {
		t.Errorf("%d transactions on b reached the replica serving shard 0 only", afterB[1]-afterA[1])
	}
	if total := afterB[0] + afterB[1] + afterB[2]; total != 4*pairs {
		t.Errorf("routed %v, %d in all; want %d", afterB, total, 4*pairs)
	}
}
