package wire

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sconrep/internal/certifier"
	"sconrep/internal/core"
	"sconrep/internal/obs/dtrace"
	"sconrep/internal/replica"
	"sconrep/internal/sql"
	"sconrep/internal/storage"
)

// deployment is a full in-process multi-"process" topology over real
// loopback TCP: certifier server, N replica servers (each dialing the
// certifier through the network), and a gateway.
type deployment struct {
	cert     *certifier.Certifier
	certSrv  *CertServer
	repSrvs  []*ReplicaServer
	clients  []*CertClient
	replicas []*replica.Replica
	gateway  *Gateway
}

func loadKV(t testing.TB, eng *storage.Engine) {
	t.Helper()
	err := eng.CreateTable(&storage.Schema{
		Table:   "kv",
		Columns: []storage.Column{{Name: "k", Type: storage.TInt}, {Name: "v", Type: storage.TString}},
		Key:     []string{"k"},
	})
	if err != nil {
		t.Fatal(err)
	}
	tx := eng.Begin()
	for k := int64(0); k < 10; k++ {
		if err := tx.Insert("kv", []any{k, "init"}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tx.CommitLocal(); err != nil {
		t.Fatal(err)
	}
}

// execStmt prepares src and runs it in tx, as a replica server does
// with a statement off the wire.
func execStmt(tx *replica.Txn, src string) error {
	p, err := sql.Prepare(src)
	if err == nil {
		_, err = tx.Exec(p)
	}
	return err
}

func newDeployment(t testing.TB, n int, mode core.Mode) *deployment {
	t.Helper()
	return newDeploymentWith(t, n, mode)
}

// newDeploymentWith is newDeployment with extra options on the replica
// servers and their certifier clients.
func newDeploymentWith(t testing.TB, n int, mode core.Mode, repOpts ...Option) *deployment {
	t.Helper()
	d := &deployment{}
	cert := certifier.New(append([]certifier.Option(nil), func() []certifier.Option {
		if mode == core.Eager {
			return []certifier.Option{certifier.WithEager()}
		}
		return nil
	}()...)...)
	d.cert = cert
	var err error
	d.certSrv, err = ServeCertifier(cert, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var replicaAddrs []string
	for i := 0; i < n; i++ {
		eng := storage.NewEngine()
		loadKV(t, eng)
		cc := DialCertifier(d.certSrv.Addr(), i, eng.Version(), repOpts...)
		rep := replica.New(replica.Config{ID: i, EarlyCert: true}, eng, cc)
		srv, err := ServeReplica(rep, "127.0.0.1:0", repOpts...)
		if err != nil {
			t.Fatal(err)
		}
		d.clients = append(d.clients, cc)
		d.replicas = append(d.replicas, rep)
		d.repSrvs = append(d.repSrvs, srv)
		replicaAddrs = append(replicaAddrs, srv.Addr())
	}
	d.gateway, err = ServeGateway("127.0.0.1:0", mode, replicaAddrs)
	if err != nil {
		t.Fatal(err)
	}
	// As cluster.NewNetworked does: a replica whose refresh stream is
	// not up yet is no subscriber, so a commit made now would neither
	// wait for it (eager) nor reach it.
	deadline := time.Now().Add(10 * time.Second)
	for _, cc := range d.clients {
		for !cc.Ready(0) {
			if time.Now().After(deadline) {
				t.Fatal("replica refresh streams not up")
			}
			time.Sleep(time.Millisecond)
		}
	}
	t.Cleanup(func() {
		d.gateway.Close()
		for _, s := range d.repSrvs {
			s.Close()
		}
		for _, r := range d.replicas {
			r.Crash()
		}
		for _, c := range d.clients {
			c.Close()
		}
		d.certSrv.Close()
	})
	return d
}

func TestDistributedEndToEnd(t *testing.T) {
	d := newDeployment(t, 3, core.Coarse)
	c, err := Dial(d.gateway.Addr(), "alice")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Update through the full network path.
	if err := c.Begin(""); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec(`UPDATE kv SET v = ? WHERE k = ?`, "networked", int64(1)); err != nil {
		t.Fatal(err)
	}
	v, ro, err := c.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if ro || v == 0 {
		t.Fatalf("commit = %d, ro=%v", v, ro)
	}

	// Strong consistency across a different client: the read must see
	// the update regardless of routing.
	c2, err := Dial(d.gateway.Addr(), "bob")
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	for i := 0; i < 6; i++ {
		if err := c2.Begin(""); err != nil {
			t.Fatal(err)
		}
		res, err := c2.Exec(`SELECT v FROM kv WHERE k = ?`, int64(1))
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := c2.Commit(); err != nil {
			t.Fatal(err)
		}
		if got := res.Rows[0][0].(string); got != "networked" {
			t.Fatalf("iteration %d: read %q", i, got)
		}
	}
}

func TestDistributedEager(t *testing.T) {
	d := newDeployment(t, 3, core.Eager)
	c, err := Dial(d.gateway.Addr(), "s")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Begin(""); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec(`UPDATE kv SET v = 'eager' WHERE k = 0`); err != nil {
		t.Fatal(err)
	}
	v, _, err := c.Commit()
	if err != nil {
		t.Fatal(err)
	}
	// The eager guarantee: at ack, every replica has applied v.
	for i, rep := range d.replicas {
		if rep.Version() < v {
			t.Fatalf("eager ack before replica %d applied (%d < %d)", i, rep.Version(), v)
		}
	}
}

// TestEagerCommitRightAfterRecover: a recovering replica subscribes
// anew, and its eager commit may come before the new stream's subAck.
// What the certifier said about tracking global commits must survive
// the queue the recovery replaced, or that commit is refused.
func TestEagerCommitRightAfterRecover(t *testing.T) {
	d := newDeployment(t, 2, core.Eager)
	rep := d.replicas[0]
	rep.Crash()
	if err := rep.Recover(); err != nil {
		t.Fatal(err)
	}
	tx, err := rep.Begin(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := execStmt(tx, `UPDATE kv SET v = 'back' WHERE k = 0`); err != nil {
		t.Fatal(err)
	}
	res, err := tx.Commit(true)
	if err != nil {
		t.Fatal(err)
	}
	if v := d.replicas[1].Version(); v < res.Version {
		t.Fatalf("eager ack at %d before replica 1 applied (at %d)", res.Version, v)
	}
}

func TestDistributedConflict(t *testing.T) {
	d := newDeployment(t, 2, core.Coarse)
	// Two sessions race on the same row; with serial client calls we
	// emulate the race by beginning both before either commits.
	a, _ := Dial(d.gateway.Addr(), "a")
	b, _ := Dial(d.gateway.Addr(), "b")
	defer a.Close()
	defer b.Close()
	if err := a.Begin(""); err != nil {
		t.Fatal(err)
	}
	if err := b.Begin(""); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Exec(`UPDATE kv SET v = 'a' WHERE k = 5`); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Exec(`UPDATE kv SET v = 'b' WHERE k = 5`); err != nil {
		// Early certification may abort b at statement time if a's
		// refresh already arrived; that requires a to have committed,
		// which it has not. So this must succeed.
		t.Fatal(err)
	}
	if _, _, err := a.Commit(); err != nil {
		t.Fatal(err)
	}
	_, _, err := b.Commit()
	if !errors.Is(err, replica.ErrCertifyConflict) {
		t.Fatalf("second committer: %v", err)
	}
}

func TestDistributedFineGrained(t *testing.T) {
	d := newDeployment(t, 2, core.Fine)
	c, _ := Dial(d.gateway.Addr(), "s")
	defer c.Close()
	if err := c.RegisterTxn("readK", []string{"kv"}); err != nil {
		t.Fatal(err)
	}
	if err := c.Begin("readK"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec(`SELECT v FROM kv WHERE k = 2`); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestDistributedConcurrentClients(t *testing.T) {
	d := newDeployment(t, 3, core.Coarse)
	var wg sync.WaitGroup
	errCh := make(chan error, 64)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := Dial(d.gateway.Addr(), fmt.Sprintf("w%d", w))
			if err != nil {
				errCh <- err
				return
			}
			defer c.Close()
			for i := 0; i < 10; i++ {
				k := int64((w*10 + i) % 10)
				if err := c.Begin(""); err != nil {
					errCh <- err
					return
				}
				if _, err := c.Exec(`UPDATE kv SET v = ? WHERE k = ?`, fmt.Sprintf("w%d-%d", w, i), k); err != nil {
					_ = c.Abort()
					continue // early-cert abort is fine
				}
				if _, _, err := c.Commit(); err != nil {
					if errors.Is(err, replica.ErrCertifyConflict) {
						continue
					}
					errCh <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	// All replicas converge.
	final := waitConverged(t, d)
	base := snapshotKV(t, d.replicas[0].Engine())
	for i := 1; i < len(d.replicas); i++ {
		got := snapshotKV(t, d.replicas[i].Engine())
		for k, v := range base {
			if got[k] != v {
				t.Fatalf("replica %d diverged at %d: %q vs %q (final version %d)", i, k, got[k], v, final)
			}
		}
	}
}

func waitConverged(t *testing.T, d *deployment) uint64 {
	t.Helper()
	deadline := time.After(10 * time.Second)
	for {
		max := uint64(0)
		min := ^uint64(0)
		for _, r := range d.replicas {
			v := r.Version()
			if v > max {
				max = v
			}
			if v < min {
				min = v
			}
		}
		if min == max {
			return max
		}
		select {
		case <-deadline:
			t.Fatalf("replicas did not converge (min %d, max %d)", min, max)
		case <-time.After(2 * time.Millisecond):
		}
	}
}

func snapshotKV(t *testing.T, e *storage.Engine) map[int64]string {
	t.Helper()
	tx := e.Begin()
	defer tx.Abort()
	kvs, err := tx.ScanAll("kv")
	if err != nil {
		t.Fatal(err)
	}
	out := map[int64]string{}
	for _, kv := range kvs {
		out[kv.Row[0].(int64)] = kv.Row[1].(string)
	}
	return out
}

func TestDistributedReplicaCrashFailover(t *testing.T) {
	d := newDeployment(t, 3, core.Coarse)
	d.replicas[1].Crash()

	c, _ := Dial(d.gateway.Addr(), "s")
	defer c.Close()
	ok := 0
	for i := 0; i < 12; i++ {
		if err := c.Begin(""); err != nil {
			continue // routed to the dead replica before probe caught up
		}
		if _, err := c.Exec(`UPDATE kv SET v = 'post-crash' WHERE k = 3`); err != nil {
			_ = c.Abort()
			continue
		}
		if _, _, err := c.Commit(); err == nil {
			ok++
		}
	}
	if ok == 0 {
		t.Fatal("no transaction succeeded with one replica down")
	}
	// Recover and verify catch-up through the networked history path.
	if err := d.replicas[1].Recover(); err != nil {
		t.Fatal(err)
	}
	waitConverged(t, d)
	got := snapshotKV(t, d.replicas[1].Engine())
	if got[3] != "post-crash" {
		t.Fatalf("recovered replica kv[3] = %q", got[3])
	}
}

func TestStatusAndStmtCache(t *testing.T) {
	d := newDeployment(t, 1, core.Coarse)
	rr := newRemoteReplica(0, d.repSrvs[0].Addr(), &options{})
	resp, err := rr.call(&replicaRequest{Op: opStatus})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Crashed || resp.Version == 0 {
		t.Fatalf("status = %+v", resp)
	}
	// Exercise the server's statement cache with repeated texts.
	c, _ := Dial(d.gateway.Addr(), "s")
	defer c.Close()
	for i := 0; i < 5; i++ {
		if err := c.Begin(""); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Exec(`SELECT COUNT(*) FROM kv`); err != nil {
			t.Fatal(err)
		}
		if _, _, err := c.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	cached := 0
	d.repSrvs[0].stmts.Range(func(_, _ any) bool { cached++; return true })
	if cached != 1 {
		t.Fatalf("statement cache has %d entries, want 1", cached)
	}
}

func TestClientErrorsWithoutTxn(t *testing.T) {
	d := newDeployment(t, 1, core.Coarse)
	c, _ := Dial(d.gateway.Addr(), "s")
	defer c.Close()
	if _, err := c.Exec(`SELECT 1 FROM kv`); err == nil {
		t.Fatal("exec without begin succeeded")
	}
	if _, _, err := c.Commit(); err == nil {
		t.Fatal("commit without begin succeeded")
	}
	if err := c.Begin(""); err != nil {
		t.Fatal(err)
	}
	if err := c.Begin(""); err == nil {
		t.Fatal("double begin succeeded")
	}
}

// idle fails the test unless no transaction is open anywhere: neither in
// the gateway's per-replica active counts (what the balancer routes by)
// nor at a replica. It polls, within a bound: a transaction's last frame
// can be a one-way commit or abort, which returns before it has arrived.
func (d *deployment) idle(t *testing.T) {
	t.Helper()
	busy := func() bool {
		for i, rr := range d.gateway.replicas {
			if rr.Active() != 0 || d.replicas[i].Active() != 0 {
				return true
			}
		}
		return false
	}
	for deadline := time.Now().Add(5 * time.Second); busy() && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	for i, rr := range d.gateway.replicas {
		if n := rr.Active(); n != 0 {
			t.Errorf("gateway counts %d open transactions on replica %d", n, i)
		}
		if n := d.replicas[i].Active(); n != 0 {
			t.Errorf("replica %d has %d open transactions", i, n)
		}
	}
}

// TestBeginHeader covers the begin header on the client API: armed by
// Start it rides on the next request, BeginTx sends it alone, and a
// header request that fails leaves no transaction anywhere.
func TestBeginHeader(t *testing.T) {
	d := newDeployment(t, 2, core.Coarse)
	c, err := Dial(d.gateway.Addr(), "s")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Armed and discarded: nothing was sent, so nothing is open.
	c.Start("", nil, dtrace.SpanContext{})
	if err := c.Abort(); err != nil {
		t.Fatal(err)
	}
	if c.seq != 0 {
		t.Fatalf("Start+Abort sent %d requests", c.seq)
	}
	d.idle(t)

	// Header + exec, then commit: two requests for the transaction.
	c.Start("", nil, dtrace.SpanContext{})
	if _, err := c.Exec(`UPDATE kv SET v = 'deferred' WHERE k = 1`); err != nil {
		t.Fatal(err)
	}
	snap := c.Snapshot()
	info, err := c.CommitEx()
	if err != nil {
		t.Fatal(err)
	}
	if c.seq != 2 || info.ReadOnly || info.Snapshot != snap || info.Version <= snap {
		t.Fatalf("after %d requests: commit %+v, begin snapshot %d", c.seq, info, snap)
	}

	// Header + commit: a transaction with no statement is one request.
	c.Start("", nil, dtrace.SpanContext{})
	bare, err := c.CommitEx()
	if err != nil {
		t.Fatal(err)
	}
	if c.seq != 3 || !bare.ReadOnly || bare.Version < info.Version {
		t.Fatalf("bare commit after %d requests: %+v, want read-only at >= %d", c.seq, bare, info.Version)
	}

	// Eager: the header goes out alone and plain operations follow. The
	// transaction wrote nothing, so its commit is a frame and no exchange.
	eager, err := c.BeginTx("")
	if err != nil {
		t.Fatal(err)
	}
	if c.seq != 4 || eager < info.Version {
		t.Fatalf("BeginTx: %d requests, snapshot %d, want >= %d", c.seq, eager, info.Version)
	}
	res, err := c.Exec(`SELECT v FROM kv WHERE k = 1`)
	if err != nil || res.Rows[0][0].(string) != "deferred" {
		t.Fatalf("read after eager begin = %v, %v", res, err)
	}
	read, err := c.CommitEx()
	want := CommitInfo{Version: eager, ReadOnly: true, Snapshot: eager, ReadTables: []string{"kv"}}
	if err != nil || !reflect.DeepEqual(read, want) {
		t.Fatalf("read-only commit = %+v, %v; want %+v", read, err, want)
	}
	d.idle(t)
	if _, err := c.BeginTx(""); err != nil {
		t.Fatal(err)
	}
	if err := c.Abort(); err != nil {
		t.Fatal(err)
	}
	d.idle(t)

	// A header request whose statement fails opens nothing.
	c.Start("", nil, dtrace.SpanContext{})
	if _, err := c.Exec(`SELECT nothing FROM nowhere`); err == nil {
		t.Fatal("bad statement succeeded")
	}
	if _, err := c.Exec(`SELECT v FROM kv WHERE k = 1`); err == nil {
		t.Fatal("exec ran in a transaction whose header request failed")
	}
	d.idle(t)
}

// TestBeginHeaderRefused: the serve gate and the balancer refuse the
// header wherever it rides, the caller can tell (ErrUnavailable), and
// the session stays usable.
func TestBeginHeaderRefused(t *testing.T) {
	var shut atomic.Bool
	gate := func() error {
		if shut.Load() {
			return ErrUnavailable
		}
		return nil
	}
	d := newDeploymentWith(t, 2, core.Coarse, WithGate(gate))
	c, err := Dial(d.gateway.Addr(), "s")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	shut.Store(true)
	for i := 0; i < 3; i++ {
		c.Start("", nil, dtrace.SpanContext{})
		if _, err := c.Exec(`SELECT v FROM kv WHERE k = 1`); !errors.Is(err, ErrUnavailable) {
			t.Fatalf("header+exec on gated replicas: %v, want ErrUnavailable", err)
		}
		c.Start("", nil, dtrace.SpanContext{})
		if _, err := c.CommitEx(); !errors.Is(err, ErrUnavailable) {
			t.Fatalf("header+commit on gated replicas: %v, want ErrUnavailable", err)
		}
	}
	d.idle(t)
	shut.Store(false)
	for _, rr := range d.gateway.replicas {
		rr.probe()
	}
	c.Start("", nil, dtrace.SpanContext{})
	if _, err := c.Exec(`SELECT v FROM kv WHERE k = 1`); err != nil {
		t.Fatalf("after the gate reopened: %v", err)
	}
	if _, _, err := c.Commit(); err != nil {
		t.Fatal(err)
	}

	// No replica configured at all.
	gw, err := ServeGateway("127.0.0.1:0", core.Coarse, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	lone, err := Dial(gw.Addr(), "s")
	if err != nil {
		t.Fatal(err)
	}
	defer lone.Close()
	lone.Start("", nil, dtrace.SpanContext{})
	if _, err := lone.Exec(`SELECT v FROM kv WHERE k = 1`); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("header+exec with no replica configured: %v, want ErrUnavailable", err)
	}
}

// TestGatewayReroutesRefusedBegin: a replica that answers a begin header
// with a refusal — its gate is closed, or it crashed — started nothing,
// so the gateway routes the request again. Of two replicas one refuses:
// the first transaction on a fresh session commits, though the balancer
// routes it to the refusing replica first.
func TestGatewayReroutesRefusedBegin(t *testing.T) {
	for _, tc := range []struct {
		name   string
		refuse func(d *deployment)
	}{
		{"gated", func(d *deployment) { d.repSrvs[0].opts.gate = func() error { return ErrUnavailable } }},
		{"crashed", func(d *deployment) { d.replicas[0].Crash() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := newDeployment(t, 2, core.Coarse)
			tc.refuse(d)
			c, err := Dial(d.gateway.Addr(), "fresh")
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			c.Start("", nil, dtrace.SpanContext{})
			if _, err := c.Exec(`UPDATE kv SET v = 'rerouted' WHERE k = 1`); err != nil {
				t.Fatalf("first statement: %v", err)
			}
			if _, _, err := c.Commit(); err != nil {
				t.Fatal(err)
			}
			// A header riding on a bare commit is routed again the same way.
			d.gateway.replicas[0].healthy.Store(true)
			c.Start("", nil, dtrace.SpanContext{})
			if _, err := c.CommitEx(); err != nil {
				t.Fatalf("bare commit: %v", err)
			}
			d.idle(t)
		})
	}
}

// TestTraceContextPropagates: a span context set by the client rides
// the begin header through the gateway's route span to the replica's
// transaction, the certify request to the certifier, and the writeset
// of the refresh to the other replica's apply — one trace, no orphan.
// An untraced client's transaction roots at the gateway's route span
// instead of fragmenting.
func TestTraceContextPropagates(t *testing.T) {
	d := newDeployment(t, 2, core.Coarse)
	coll := dtrace.NewCollector(256)
	d.gateway.Balancer().EnableTracing(dtrace.New("gateway", coll))
	d.cert.EnableTracing(dtrace.New("certifier", coll))
	for i, rep := range d.replicas {
		rep.EnableTracing(dtrace.New(fmt.Sprintf("replica%d", i), coll))
	}
	c, err := Dial(d.gateway.Addr(), "traced")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	update := func(sc dtrace.SpanContext) {
		t.Helper()
		c.Start("", nil, sc)
		if _, err := c.Exec(`UPDATE kv SET v = ? WHERE k = ?`, "traced", int64(1)); err != nil {
			t.Fatal(err)
		}
		if _, ro, err := c.Commit(); err != nil || ro {
			t.Fatalf("commit: readOnly=%v err=%v", ro, err)
		}
		waitConverged(t, d)
	}
	// spansOf polls for the trace until the asynchronous refresh apply
	// has ended its span.
	spansOf := func(pick func(dtrace.Span) bool) (map[string]dtrace.Span, []dtrace.Span) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(2 * time.Millisecond) {
			byName := map[string]dtrace.Span{}
			var trace dtrace.TraceID
			for _, sp := range coll.Recent(0) {
				if pick(sp) {
					trace = sp.Trace
				}
			}
			spans := coll.Trace(trace)
			for _, sp := range spans {
				byName[sp.Name] = sp
			}
			if _, ok := byName["refresh.apply"]; ok {
				return byName, dtrace.Orphans(spans)
			}
			if time.Now().After(deadline) {
				t.Fatalf("trace incomplete: have %v", byName)
			}
		}
	}

	root := testSpan()
	update(root)
	spans, orphans := spansOf(func(sp dtrace.Span) bool { return sp.Trace == root.Trace })
	// The client's own span was never recorded; its children (the route
	// and the replica transaction) are the only spans missing a parent.
	for _, sp := range orphans {
		if sp.Parent != root.Span {
			t.Errorf("orphan span %s: parent %s missing", sp.Name, sp.Parent)
		}
	}
	for _, name := range []string{"lb.route", "replica.txn", "replica.commit", "certifier.certify", "refresh.apply"} {
		if sp, ok := spans[name]; !ok || sp.Trace != root.Trace {
			t.Errorf("span %s not in the client's trace (have %v)", name, sp)
		}
	}
	if got := spans["lb.route"].Parent; got != root.Span {
		t.Errorf("lb.route parent = %s, want the client's span %s", got, root.Span)
	}

	update(dtrace.SpanContext{})
	spans, orphans = spansOf(func(sp dtrace.Span) bool { return sp.Name == "lb.route" && sp.Trace != root.Trace })
	if len(orphans) != 0 {
		t.Errorf("orphans in a gateway-rooted trace: %v", orphans)
	}
	if got := spans["lb.route"].Parent; got != (dtrace.SpanID{}) {
		t.Errorf("lb.route for an untraced client has parent %s", got)
	}
	if got := spans["replica.txn"].Parent; got != spans["lb.route"].ID {
		t.Errorf("replica.txn parent = %s, want the route span %s", got, spans["lb.route"].ID)
	}
}
