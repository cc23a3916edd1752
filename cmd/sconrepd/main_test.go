package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sconrep/internal/cluster"
	"sconrep/internal/core"
	"sconrep/internal/obs"
	"sconrep/internal/obs/dtrace"
	"sconrep/internal/replica"
	"sconrep/internal/shard"
	"sconrep/internal/storage"
	"sconrep/internal/wire"
)

// healthz polls the /healthz of a node's -obs endpoint until it reports
// ready and checks the role it answers for.
func healthz(t *testing.T, endpoint *obs.Server, role string) obs.Health {
	t.Helper()
	var h obs.Health
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		resp, err := http.Get("http://" + endpoint.Addr() + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&h)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusOK && h.Ready {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s /healthz still %d: %+v", role, resp.StatusCode, h)
		}
	}
	if h.Role != role {
		t.Fatalf("/healthz answers for role %q, want %q", h.Role, role)
	}
	return h
}

// deployment is the package comment's deployment — a certifier with a
// decision log, two replicas, a gateway, each with -obs — started in one
// process through the entry points main dispatches to.
type deployment struct {
	ncfg       cluster.NetConfig
	schema     string
	certCfg    cluster.CertifierConfig
	cert       *cluster.CertifierNode
	certObs    *obs.Server
	replicas   []*cluster.ReplicaNode
	replicaObs []*obs.Server
	gw         *cluster.GatewayNode
	gwObs      *obs.Server
}

// startDeployment starts a deployment whose replicas keep their data in
// memory, or under a data directory each when durable, and waits for
// every node's /healthz to report ready. It is torn down with the test.
func startDeployment(t *testing.T, durable bool) *deployment {
	t.Helper()
	dir := t.TempDir()
	d := &deployment{
		ncfg: cluster.NetConfig{
			Timeouts: wire.Timeouts{Call: 5 * time.Second, Idle: 2 * time.Second},
			Backoff:  wire.Backoff{Min: 5 * time.Millisecond, Max: 100 * time.Millisecond},
			SubLease: 10 * time.Second,
		},
		schema: filepath.Join(dir, "schema.sql"),
	}
	err := os.WriteFile(d.schema, []byte(`
CREATE TABLE acct (id INT, bal INT, PRIMARY KEY (id));
INSERT INTO acct VALUES (1, 100);
INSERT INTO acct VALUES (2, 100);
`), 0o644)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if d.gwObs != nil {
			d.gwObs.Close()
			d.gw.Close()
		}
		for i := range d.replicas {
			d.replicaObs[i].Close()
			d.replicas[i].Close()
		}
		if d.certObs != nil {
			d.certObs.Close()
			d.cert.Close()
		}
	})

	const anyPort = "127.0.0.1:0"
	d.certCfg = cluster.CertifierConfig{Listen: anyPort, WALPath: filepath.Join(dir, "cert.wal"), Net: d.ncfg}
	if d.cert, d.certObs, err = runCertifier(d.certCfg, anyPort); err != nil {
		t.Fatal(err)
	}
	gwCfg := cluster.GatewayConfig{Listen: anyPort, Mode: core.Coarse, Net: d.ncfg}
	for id := 0; id < 2; id++ {
		cfg := cluster.ReplicaConfig{
			Replica:   replica.Config{ID: id, EarlyCert: true},
			Listen:    anyPort,
			Certifier: d.cert.Addr(),
			Bootstrap: func(e *storage.Engine) error { return loadBootstrap(e, d.schema) },
			MaxLag:    100,
			Net:       d.ncfg,
		}
		if durable {
			cfg.DataDir = filepath.Join(dir, fmt.Sprintf("replica-%d", id))
		}
		r, rObs, err := runReplica(cfg, anyPort)
		if err != nil {
			t.Fatal(err)
		}
		d.replicas, d.replicaObs = append(d.replicas, r), append(d.replicaObs, rObs)
		gwCfg.Replicas = append(gwCfg.Replicas, r.Addr())
	}
	// The package comment's start order: the gateway starts once the
	// replicas serve, so its first probes, before it takes a client, find
	// both ready.
	healthz(t, d.certObs, "certifier")
	for _, rObs := range d.replicaObs {
		healthz(t, rObs, "replica")
	}
	if d.gw, d.gwObs, err = runGateway(gwCfg, anyPort); err != nil {
		t.Fatal(err)
	}
	if h := healthz(t, d.gwObs, "gateway"); h.Detail["live_replicas"] != float64(2) {
		t.Fatalf("gateway health: %+v", h)
	}
	return d
}

// dial opens a client session on the deployment's gateway.
func (d *deployment) dial(t *testing.T, session string) *wire.Client {
	t.Helper()
	client, err := wire.Dial(d.gw.Addr(), session, wire.WithTimeouts(d.ncfg.Timeouts))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	return client
}

// transfer moves 10 from account 1 to nowhere and returns the commit
// version.
func transfer(t *testing.T, client *wire.Client) uint64 {
	t.Helper()
	if err := client.Begin(""); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Exec(`UPDATE acct SET bal = bal - 10 WHERE id = 1`); err != nil {
		t.Fatal(err)
	}
	v, readOnly, err := client.Commit()
	if err != nil || readOnly {
		t.Fatalf("commit: version %d, read-only %v, %v", v, readOnly, err)
	}
	return v
}

// TestDeploymentSmoke commits through a deployment and restarts the
// certifier from its log under the running replicas.
func TestDeploymentSmoke(t *testing.T) {
	d := startDeployment(t, false)
	client := d.dial(t, "smoke")
	// balance reads account 1 back.
	balance := func() any {
		t.Helper()
		if err := client.Begin(""); err != nil {
			t.Fatal(err)
		}
		res, err := client.Exec(`SELECT bal FROM acct WHERE id = 1`)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := client.Commit(); err != nil {
			t.Fatal(err)
		}
		return res.Rows[0][0]
	}
	v1 := transfer(t, client)
	if got := balance(); got != int64(90) {
		t.Fatalf("balance after one transfer: %v", got)
	}

	// Restart the certifier on its address: the decision comes back from
	// the log — the replicas' hellos could restore the version, never the
	// history — and the replicas resubscribe by themselves.
	d.certCfg.Listen = d.cert.Addr()
	d.certObs.Close()
	d.cert.Close()
	var err error
	if d.cert, d.certObs, err = runCertifier(d.certCfg, "127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	restored := d.cert.Cert
	if h := restored.History(v1 - 1); restored.Version() != v1 || len(h) != 1 || h[0].Version != v1 {
		t.Fatalf("restarted certifier at version %d with History(%d) = %v, want the decision at %d", restored.Version(), v1-1, h, v1)
	}
	if v2 := transfer(t, client); v2 != v1+1 {
		t.Fatalf("first commit after the restart at version %d, want %d", v2, v1+1)
	}
	if got := balance(); got != int64(80) {
		t.Fatalf("balance after two transfers: %v", got)
	}
	healthz(t, d.certObs, "certifier")
	for _, rObs := range d.replicaObs {
		healthz(t, rObs, "replica")
	}
}

// metrics fetches the exposition a node's -obs endpoint serves.
func metrics(t *testing.T, endpoint *obs.Server) string {
	t.Helper()
	resp, err := http.Get("http://" + endpoint.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// families maps each metric family of an exposition to its type.
func families(text string) map[string]string {
	out := make(map[string]string)
	for _, line := range strings.Split(text, "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			out[f[2]] = f[3]
		}
	}
	return out
}

// TestReplicaExportsTableLag: a replica started as sconrepd starts it
// exports its per-table lag, read over its certifier link like the lag
// its /healthz reports. Both replicas list the table the first commit
// wrote — the one that certified it too, whose stream does not carry
// it — well inside the stream's idle period, so neither waits for a
// resubscription to read the certifier again.
func TestReplicaExportsTableLag(t *testing.T) {
	d := startDeployment(t, false)
	transfer(t, d.dial(t, "lag"))
	deadline := time.Now().Add(d.ncfg.Timeouts.Idle / 2)
	for id, endpoint := range d.replicaObs {
		series := fmt.Sprintf(`sconrep_replica_table_lag{replica="%d",table="acct"} 0`, id)
		for !strings.Contains(metrics(t, endpoint), series) {
			if time.Now().After(deadline) {
				t.Fatalf("replica %d does not export %s:\n%s", id, series, metrics(t, endpoint))
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}

// TestObsFamiliesMatchCluster: the in-process cluster attaches its nodes
// through the methods sconrepd calls, so for each role a node started as
// sconrepd starts it exports the same metric families, of the same
// types, as the cluster does, and the cluster exports no family of its
// own. Every series a replica node exports carries its replica label.
func TestObsFamiliesMatchCluster(t *testing.T) {
	d := startDeployment(t, true)
	transfer(t, d.dial(t, "families"))
	roles := map[string]*obs.Server{"certifier": d.certObs, "replica": d.replicaObs[0], "gateway": d.gwObs}

	c, err := cluster.New(cluster.Config{Replicas: 2, Mode: core.Coarse, DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.LoadData(func(e *storage.Engine) error { return loadBootstrap(e, d.schema) }); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	c.EnableObs(reg, nil)
	var sb strings.Builder
	reg.WritePrometheus(&sb)
	inProcess := families(sb.String())

	deployed := make(map[string]bool)
	for role, endpoint := range roles {
		text := metrics(t, endpoint)
		for name, typ := range families(text) {
			deployed[name] = true
			if got, ok := inProcess[name]; !ok || got != typ {
				t.Errorf("%s exports %s as a %s; the in-process cluster exports it as %q", role, name, typ, got)
			}
		}
		if role != "replica" {
			continue
		}
		for _, line := range strings.Split(text, "\n") {
			if line != "" && !strings.HasPrefix(line, "#") && !strings.Contains(line, `replica="0"`) {
				t.Errorf("replica series without its replica label: %s", line)
			}
		}
	}
	for name := range inProcess {
		if !deployed[name] {
			t.Errorf("the in-process cluster exports %s, which no sconrepd node does", name)
		}
	}
}

// TestShardedDeploymentLearnsRouting is README's sharded deployment with
// the map on the certifier only: -shards 2 -shard-tables a=0,b=1 there,
// replicas with nothing but -serve-shards (all, 0, 1), a gateway with
// no shard flag. The gateway learns the map and each replica's shards
// from its status probes: no strong read is stale, and no transaction
// on a reaches the replica that serves shard 1 only.
func TestShardedDeploymentLearnsRouting(t *testing.T) {
	dir := t.TempDir()
	schema := filepath.Join(dir, "schema.sql")
	err := os.WriteFile(schema, []byte(`
CREATE TABLE a (id INT, v INT, PRIMARY KEY (id));
CREATE TABLE b (id INT, v INT, PRIMARY KEY (id));
INSERT INTO a VALUES (1, 0);
INSERT INTO b VALUES (1, 0);
`), 0o644)
	if err != nil {
		t.Fatal(err)
	}
	ncfg := cluster.NetConfig{
		Timeouts: wire.Timeouts{Call: 5 * time.Second, Idle: 2 * time.Second},
		Backoff:  wire.Backoff{Min: 5 * time.Millisecond, Max: 100 * time.Millisecond},
	}
	const anyPort = "127.0.0.1:0"
	smap, err := shard.Parse(2, "a=0,b=1")
	if err != nil {
		t.Fatal(err)
	}
	cert, _, err := runCertifier(cluster.CertifierConfig{Listen: anyPort, Shards: smap, Net: ncfg}, "")
	if err != nil {
		t.Fatal(err)
	}
	defer cert.Close()
	gwCfg := cluster.GatewayConfig{Listen: anyPort, Mode: core.Coarse, Net: ncfg}
	for id, serve := range []string{"", "0", "1"} {
		cfg := cluster.ReplicaConfig{
			Replica:   replica.Config{ID: id, EarlyCert: true},
			Listen:    anyPort,
			Certifier: cert.Addr(),
			Bootstrap: func(e *storage.Engine) error { return loadBootstrap(e, schema) },
			MaxLag:    100,
			Net:       ncfg,
		}
		if cfg.ServeShards, err = parseShardList(serve); err != nil {
			t.Fatal(err)
		}
		r, _, err := runReplica(cfg, "")
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		gwCfg.Replicas = append(gwCfg.Replicas, r.Addr())
	}
	gw, gwObs, err := runGateway(gwCfg, anyPort)
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	defer gwObs.Close()
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
	for _, table := range []string{"a", "b"} {
		stale := 0
		for i := 1; i <= pairs; i++ {
			client.Start("", []string{table}, dtrace.SpanContext{})
			if _, err := client.Exec(fmt.Sprintf(`UPDATE %s SET v = ? WHERE id = 1`, table), int64(i)); err != nil {
				t.Fatal(err)
			}
			if _, _, err := client.Commit(); err != nil {
				t.Fatal(err)
			}
			client.Start("", []string{table}, dtrace.SpanContext{})
			res, err := client.Exec(fmt.Sprintf(`SELECT v FROM %s WHERE id = 1`, table))
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := client.Commit(); err != nil {
				t.Fatal(err)
			}
			if res.Rows[0][0] != int64(i) {
				stale++
			}
		}
		if stale != 0 {
			t.Errorf("%d of %d strong reads on %s were stale", stale, pairs, table)
		}
		if table == "a" && strings.Contains(metrics(t, gwObs), `sconrep_lb_routed_total{replica="2"}`) {
			t.Errorf("a transaction on a reached the replica serving shard 1 only")
		}
	}
}
