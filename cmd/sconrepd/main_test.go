package main

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"sconrep/internal/cluster"
	"sconrep/internal/core"
	"sconrep/internal/obs"
	"sconrep/internal/replica"
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

// TestDeploymentSmoke stands up the deployment of the package comment —
// certifier with a decision log, two replicas, gateway, each with -obs —
// in one process through the entry points main dispatches to, commits
// through it, and restarts the certifier from its log under the running
// replicas.
func TestDeploymentSmoke(t *testing.T) {
	dir := t.TempDir()
	schema := filepath.Join(dir, "schema.sql")
	err := os.WriteFile(schema, []byte(`
CREATE TABLE acct (id INT, bal INT, PRIMARY KEY (id));
INSERT INTO acct VALUES (1, 100);
INSERT INTO acct VALUES (2, 100);
`), 0o644)
	if err != nil {
		t.Fatal(err)
	}
	const anyPort = "127.0.0.1:0"
	ncfg := cluster.NetConfig{
		Timeouts: wire.Timeouts{Call: 5 * time.Second, Idle: 2 * time.Second},
		Backoff:  wire.Backoff{Min: 5 * time.Millisecond, Max: 100 * time.Millisecond},
		SubLease: 10 * time.Second,
	}

	certCfg := cluster.CertifierConfig{Listen: anyPort, WALPath: filepath.Join(dir, "cert.wal"), Net: ncfg}
	cert, certObs, err := runCertifier(certCfg, anyPort)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { certObs.Close(); cert.Close() }()
	gwCfg := cluster.GatewayConfig{Listen: anyPort, Mode: core.Coarse, Net: ncfg}
	var replicaObs []*obs.Server
	for id := 0; id < 2; id++ {
		r, rObs, err := runReplica(cluster.ReplicaConfig{
			Replica:   replica.Config{ID: id, EarlyCert: true},
			Listen:    anyPort,
			Certifier: cert.Addr(),
			Bootstrap: func(e *storage.Engine) error { return loadBootstrap(e, schema) },
			MaxLag:    100,
			Net:       ncfg,
		}, anyPort)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		defer rObs.Close()
		replicaObs = append(replicaObs, rObs)
		gwCfg.Replicas = append(gwCfg.Replicas, r.Addr())
	}
	gw, gwObs, err := runGateway(gwCfg, anyPort)
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	defer gwObs.Close()

	healthz(t, certObs, "certifier")
	for _, rObs := range replicaObs {
		healthz(t, rObs, "replica")
	}
	if h := healthz(t, gwObs, "gateway"); h.Detail["live_replicas"] != float64(2) {
		t.Fatalf("gateway health: %+v", h)
	}

	client, err := wire.Dial(gw.Addr(), "smoke", wire.WithTimeouts(ncfg.Timeouts))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	// transfer moves 10 from account 1 to nowhere and returns the commit
	// version; balance reads account 1 back.
	transfer := func() uint64 {
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
	v1 := transfer()
	if got := balance(); got != int64(90) {
		t.Fatalf("balance after one transfer: %v", got)
	}

	// Restart the certifier on its address: the decision comes back from
	// the log — the replicas' hellos could restore the version, never the
	// history — and the replicas resubscribe by themselves.
	certCfg.Listen = cert.Addr()
	certObs.Close()
	cert.Close()
	if cert, certObs, err = runCertifier(certCfg, anyPort); err != nil {
		t.Fatal(err)
	}
	restored := cert.Cert
	if h := restored.History(v1 - 1); restored.Version() != v1 || len(h) != 1 || h[0].Version != v1 {
		t.Fatalf("restarted certifier at version %d with History(%d) = %v, want the decision at %d", restored.Version(), v1-1, h, v1)
	}
	if v2 := transfer(); v2 != v1+1 {
		t.Fatalf("first commit after the restart at version %d, want %d", v2, v1+1)
	}
	if got := balance(); got != int64(80) {
		t.Fatalf("balance after two transfers: %v", got)
	}
	healthz(t, certObs, "certifier")
	for _, rObs := range replicaObs {
		healthz(t, rObs, "replica")
	}
}
