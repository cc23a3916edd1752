package wire

import (
	"log"
	"os"
	"strings"
	"testing"
	"time"

	"sconrep/internal/certifier"
	"sconrep/internal/core"
	"sconrep/internal/replica"
	"sconrep/internal/shard"
	"sconrep/internal/storage"
)

// TestClientLearnsShardMap: a subscriber keeps the map its certifier's
// subAck carries, and reports it with its own shards on a status
// answer; the replica server of a full subscriber reports nil shards.
func TestClientLearnsShardMap(t *testing.T) {
	cert := newShardedCert(t)
	srv, err := ServeCertifier(cert, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for _, served := range [][]int{nil, {1, 3}} {
		cli := DialCertifier(srv.Addr(), 1, 0, WithShards(served))
		if cli.ShardMap() != nil {
			t.Fatal("a map before any subAck")
		}
		rep := replica.New(replica.Config{ID: 1}, storage.NewEngine(), cli)
		waitFor(t, "the stream", func() bool { return cli.StreamLive(0) })
		if !cli.ShardMap().Equal(cert.ShardMap()) {
			t.Fatalf("client map %d shards pinning %q; certifier's %d, %q",
				cli.ShardMap().N(), cli.ShardMap().Spec(), cert.ShardMap().N(), cert.ShardMap().Spec())
		}
		rs, err := ServeReplica(rep, "127.0.0.1:0", WithCertClient(cli))
		if err != nil {
			t.Fatal(err)
		}
		var resp replicaResponse
		rs.dispatch(&replicaRequest{Op: opStatus}, &resp)
		if !resp.Ready || resp.Shards != cli.ShardMap() || len(resp.Served) != len(served) || (resp.Served == nil) != (served == nil) {
			t.Fatalf("status answer ready %v, served %v, map %p; want ready, %v, %p", resp.Ready, resp.Served, resp.Shards, served, cli.ShardMap())
		}
		rs.Close()
		rep.Crash()
		cli.Close()
	}
}

// TestClientLogsShardRefusalOnce: a subscriber naming a shard its
// certifier lacks is refused, logs it once, naming the shard and the
// certifier's count, never reports its stream up, and does not
// subscribe again: the certifier logs one refusal.
func TestClientLogsShardRefusalOnce(t *testing.T) {
	var logged logBuffer
	log.SetOutput(&logged)
	defer log.SetOutput(os.Stderr)
	srv, err := ServeCertifier(certifier.New(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli := DialCertifier(srv.Addr(), 7, 0, WithShards([]int{0, 3}),
		WithBackoff(Backoff{Min: time.Millisecond, Max: 5 * time.Millisecond}))
	defer cli.Close()
	cli.Subscribe(7)
	// Room for several reconnects at the backoff ceiling: there is none.
	for deadline := time.Now().Add(200 * time.Millisecond); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if cli.StreamLive(0) || cli.Serving() || cli.ShardMap() != nil {
			t.Fatal("refused subscription reported up")
		}
	}
	out := logged.String()
	if n := strings.Count(out, "subscribes to shard 3, certifier has 1 shard(s); closing its stream"); n != 1 {
		t.Fatalf("certifier logged %d refusals, want one: a refused subscription is not retried:\n%s", n, out)
	}
	if n := strings.Count(out, "has 1 shard(s) and refuses replica 7, which serves shard 3"); n != 1 {
		t.Fatalf("replica logged the refusal %d times, want once:\n%s", n, out)
	}
}

// TestGatewayRefusesAnotherMap: a gateway over two replicas whose
// certifiers were given different maps routes by the first map a
// replica reports and treats the other replica as down, logging it once
// however often it is probed.
func TestGatewayRefusesAnotherMap(t *testing.T) {
	var logged logBuffer
	log.SetOutput(&logged)
	defer log.SetOutput(os.Stderr)
	var addrs []string
	for id, pins := range []map[string]int{{"a": 0, "b": 1}, {"a": 1, "b": 0}} {
		smap, _ := shard.New(2, pins)
		certSrv, err := ServeCertifier(certifier.New(certifier.WithShards(smap)), "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer certSrv.Close()
		cc := DialCertifier(certSrv.Addr(), id, 0)
		defer cc.Close()
		rep := replica.New(replica.Config{ID: id}, storage.NewEngine(), cc)
		defer rep.Crash()
		waitFor(t, "the stream", func() bool { return cc.Serving() })
		srv, err := ServeReplica(rep, "127.0.0.1:0", WithCertClient(cc))
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		addrs = append(addrs, srv.Addr())
	}
	gw, err := ServeGateway("127.0.0.1:0", core.Coarse, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	for i := 0; i < 3; i++ {
		for _, r := range gw.replicas {
			r.probe()
		}
	}
	if !gw.replicas[0].healthy.Load() || gw.replicas[1].healthy.Load() {
		t.Fatalf("healthy: replica 0 %v, replica 1 %v; want only replica 0", gw.replicas[0].healthy.Load(), gw.replicas[1].healthy.Load())
	}
	if n := strings.Count(logged.String(), "replica 1 reports a 2-shard map pinning"); n != 1 {
		t.Fatalf("disagreement logged %d times, want once:\n%s", n, logged.String())
	}
}
