package cluster

import (
	"errors"
	"fmt"
	"math"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sconrep/internal/core"
	"sconrep/internal/history"
	"sconrep/internal/latency"
	"sconrep/internal/metrics"
	"sconrep/internal/replica"
	"sconrep/internal/sql"
	"sconrep/internal/storage"
	"sconrep/internal/wire"
)

func loadNetKV(e *storage.Engine) error {
	err := e.CreateTable(&storage.Schema{
		Table:   "kv",
		Columns: []storage.Column{{Name: "k", Type: storage.TInt}, {Name: "v", Type: storage.TString}},
		Key:     []string{"k"},
	})
	if err != nil {
		return err
	}
	tx := e.Begin()
	for k := int64(0); k < 8; k++ {
		if err := tx.Insert("kv", []any{k, "init"}); err != nil {
			return err
		}
	}
	_, err = tx.CommitLocal()
	return err
}

func newNetCluster(t *testing.T, mode core.Mode) *Cluster {
	t.Helper()
	return newNetClusterWith(t, mode, func(*NetConfig) {})
}

// newNetClusterWith is newNetCluster with the net configuration edited
// by tweak before the cluster starts.
func newNetClusterWith(t *testing.T, mode core.Mode, tweak func(*NetConfig)) *Cluster {
	t.Helper()
	ncfg := NetConfig{
		Timeouts: wire.Timeouts{Call: 5 * time.Second, Idle: 2 * time.Second},
		Backoff:  wire.Backoff{Min: 5 * time.Millisecond, Max: 100 * time.Millisecond},
	}
	tweak(&ncfg)
	c, err := NewNetworked(Config{
		Replicas:      3,
		Mode:          mode,
		Seed:          1,
		RecordHistory: true,
	}, ncfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if err := c.LoadData(loadNetKV); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestNetworkedSmoke drives the wire-backed session path end to end:
// update via one session, strong read via another, history recorded.
func TestNetworkedSmoke(t *testing.T) {
	for _, mode := range []core.Mode{core.Eager, core.Coarse, core.Fine, core.Session} {
		t.Run(mode.String(), func(t *testing.T) {
			c := newNetCluster(t, mode)
			s := c.SessionWithID("writer")
			defer s.Close()

			tx, err := s.Begin("")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := tx.ExecSQL(`UPDATE kv SET v = 'networked' WHERE k = 1`); err != nil {
				t.Fatal(err)
			}
			res, err := tx.Commit()
			if err != nil {
				t.Fatal(err)
			}
			if res.ReadOnly || res.Version == 0 {
				t.Fatalf("commit = %+v", res)
			}

			s2 := c.SessionWithID("reader")
			defer s2.Close()
			for i := 0; i < 4; i++ {
				tx2, err := s2.Begin("")
				if err != nil {
					t.Fatal(err)
				}
				r, err := tx2.ExecSQL(`SELECT v FROM kv WHERE k = 1`)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := tx2.Commit(); err != nil {
					t.Fatal(err)
				}
				got := r.Rows[0][0].(string)
				if mode.Strong() && got != "networked" {
					t.Fatalf("strong mode %v read %q on iteration %d", mode, got, i)
				}
			}

			events := c.Recorder().Events()
			if len(events) < 5 {
				t.Fatalf("recorded %d events, want >= 5", len(events))
			}
			if mode.Strong() {
				if violations := history.CheckStrong(events); len(violations) != 0 {
					t.Fatalf("strong-consistency violations: %v", violations)
				}
			}
			if violations := history.CheckSession(events); mode == core.Session && len(violations) != 0 {
				t.Fatalf("session violations: %v", violations)
			}
		})
	}
}

// TestNetworkedSessionReconnect verifies the epoch discipline: a
// session whose gateway connection breaks resumes under a fresh
// session ID, so the oracle never sees one session lose its floor.
func TestNetworkedSessionReconnect(t *testing.T) {
	c := newNetCluster(t, core.Session)
	s := c.SessionWithID("flaky")
	defer s.Close()

	tx, err := s.Begin("")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.ExecSQL(`UPDATE kv SET v = 'one' WHERE k = 2`); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := s.effectiveID(); got != "flaky" {
		t.Fatalf("effectiveID = %q before any failure", got)
	}

	// Sever the gateway connection out from under the session.
	s.wc.Close()
	// The next transaction must transparently reconnect with a new
	// epoch.
	tx2, err := s.Begin("")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx2.ExecSQL(`SELECT v FROM kv WHERE k = 2`); err != nil {
		t.Fatal(err)
	}
	if _, err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := s.effectiveID(); got != "flaky#1" {
		t.Fatalf("effectiveID = %q after reconnect", got)
	}
	events := c.Recorder().Events()
	sessions := map[string]bool{}
	for _, e := range events {
		sessions[e.Session] = true
	}
	if !sessions["flaky"] || !sessions["flaky#1"] {
		t.Fatalf("history sessions = %v, want both epochs", sessions)
	}
	if violations := history.CheckMonotonicSessions(events); len(violations) != 0 {
		t.Fatalf("monotonic-session violations: %v", violations)
	}
}

// frameCounter counts the frames the dialing side of the client link
// and of the replica links moves: socket writes plus non-empty reads,
// one per request or response.
type frameCounter struct{ client, replica atomic.Int64 }

func (f *frameCounter) dialerFor(label string) wire.Dialer {
	var n *atomic.Int64
	switch {
	case label == LinkClient:
		n = &f.client
	case strings.HasPrefix(label, "replica/"):
		n = &f.replica
	default:
		return nil
	}
	return func(network, addr string) (net.Conn, error) {
		c, err := net.Dial(network, addr)
		if err != nil {
			return nil, err
		}
		return &countedConn{Conn: c, n: n}, nil
	}
}

type countedConn struct {
	net.Conn
	n *atomic.Int64
}

func (c *countedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.n.Add(1)
	}
	return n, err
}

// Write counts before it writes: a one-way frame's effect — the replica
// ending the transaction — can outrun this goroutine's next statement.
func (c *countedConn) Write(p []byte) (int, error) {
	c.n.Add(1)
	return c.Conn.Write(p)
}

// waitQuiet polls, within a bound, until no replica has a transaction
// open. A transaction's last frame can be a one-way commit or abort —
// nobody's round trip — so what it costs and leaves behind is read only
// after it has arrived.
func waitQuiet(t *testing.T, c *Cluster) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for i := 0; i < c.NumReplicas(); i++ {
		for c.Replica(i).Active() != 0 {
			if time.Now().After(deadline) {
				t.Fatalf("replica %d still has %d open transactions", i, c.Replica(i).Active())
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// waitApplied waits until every replica has applied version v.
func waitApplied(t *testing.T, c *Cluster, v uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for i := 0; i < c.NumReplicas(); i++ {
		for c.Replica(i).Version() < v {
			if time.Now().After(deadline) {
				t.Fatalf("replica %d stuck at version %d, want %d", i, c.Replica(i).Version(), v)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// framesOf runs txn three times and returns the fewest frames one run
// moved on the client link and on the replica links: the gateway's
// status probes share the replica links and can only add frames.
func framesOf(t *testing.T, c *Cluster, f *frameCounter, txn func()) (client, replica int64) {
	client, replica = math.MaxInt64, math.MaxInt64
	for i := 0; i < 3; i++ {
		c0, r0 := f.client.Load(), f.replica.Load()
		txn()
		waitQuiet(t, c)
		client = min(client, f.client.Load()-c0)
		replica = min(replica, f.replica.Load()-r0)
	}
	return client, replica
}

// TestNetworkedFrameCounts pins what a transaction costs on the wire.
// Begin rides on the first request, and a transaction that wrote nothing
// ends with one frame — its commit, or any abort, is not answered: 2N+1
// frames per link for N read statements, 2N+2 once one of them wrote, 2
// for a bare commit (no response had said read-only yet), none for a bare
// abort.
func TestNetworkedFrameCounts(t *testing.T) {
	var fc frameCounter
	c := newNetClusterWith(t, core.Coarse, func(n *NetConfig) { n.DialerFor = fc.dialerFor })
	s := c.SessionWithID("counted")
	defer s.Close()
	mustExec := func(tx *Tx, q string) {
		t.Helper()
		if _, err := tx.ExecSQL(q); err != nil {
			t.Fatal(err)
		}
	}
	begin := func() *Tx {
		t.Helper()
		tx, err := s.Begin("")
		if err != nil {
			t.Fatal(err)
		}
		return tx
	}
	// Connect first: the hello frame belongs to the session, not to a
	// transaction.
	tx := begin()
	mustExec(tx, `SELECT v FROM kv WHERE k = 1`)
	tx.Abort()
	waitQuiet(t, c)

	// run commits a transaction of the given statements.
	run := func(readOnly bool, stmts ...string) func() {
		return func() {
			t.Helper()
			tx := begin()
			for _, q := range stmts {
				mustExec(tx, q)
			}
			if res, err := tx.Commit(); err != nil || res.ReadOnly != readOnly {
				t.Fatalf("commit = %+v, %v; want ReadOnly=%v", res, err, readOnly)
			}
		}
	}
	const read1, read2, write = `SELECT v FROM kv WHERE k = 1`, `SELECT v FROM kv WHERE k = 2`, `UPDATE kv SET v = 'counted' WHERE k = 1`
	for _, tc := range []struct {
		name   string
		txn    func()
		frames int64
	}{
		{"one read", run(true, read1), 3},
		{"three reads", run(true, read1, read2, read1), 7},
		{"read, update, read", run(false, read1, write, read2), 8},
		{"read, abort", func() {
			tx := begin()
			mustExec(tx, read1)
			tx.Abort()
		}, 3},
		{"begin, commit", run(true), 2},
		{"begin, abort", func() { begin().Abort() }, 0},
	} {
		client, replica := framesOf(t, c, &fc, tc.txn)
		if client != tc.frames || replica != tc.frames {
			t.Errorf("%s: %d client-link and %d replica-link frames, want %d and %d",
				tc.name, client, replica, tc.frames, tc.frames)
		}
	}
}

// certLinkFrames counts what the replicas' certifier links carry after
// each connection's hello: frames either way on request connections,
// and client → server frames — apply acknowledgments — on subscription
// connections.
type certLinkFrames struct{ req, acks atomic.Int64 }

func (f *certLinkFrames) dialerFor(label string) wire.Dialer {
	if !strings.HasPrefix(label, "cert/") {
		return nil
	}
	return func(network, addr string) (net.Conn, error) {
		c, err := net.Dial(network, addr)
		if err != nil {
			return nil, err
		}
		return &certConn{Conn: c, f: f}, nil
	}
}

// certConn learns which kind of connection it is from its first write,
// the hello: u32 length, 4-byte magic, version, then the link byte —
// 's' on a subscription.
type certConn struct {
	net.Conn
	f     *certLinkFrames
	hello bool
	sub   bool
}

// Write counts before it writes: the frame's effect — a commit
// returning to the test — can outrun this goroutine's next statement.
func (c *certConn) Write(p []byte) (int, error) {
	switch {
	case !c.hello:
		c.hello, c.sub = true, p[9] == 's'
	case c.sub:
		c.f.acks.Add(1)
	default:
		c.f.req.Add(1)
	}
	return c.Conn.Write(p)
}

func (c *certConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 && !c.sub {
		c.f.req.Add(1)
	}
	return n, err
}

// TestNetworkedCertLinkFrames pins what a commit costs on the certifier
// links, counted from the moment the cluster is up. Under a lazy mode
// nothing counts apply acknowledgments and none is sent: N sequential
// updates are N certify exchanges and not one frame more. Under ESC the
// acknowledgments are one-way frames on the refresh streams — one per
// commit and non-origin replica, since each commit returns only when
// they are in — and so is the certifier's notice to the origin: the
// request links carry the same N certify exchanges.
func TestNetworkedCertLinkFrames(t *testing.T) {
	const n = 50
	for _, tc := range []struct {
		mode core.Mode
		req  int64 // request-link frames
		acks int64 // subscription-link acknowledgment frames, all replicas
	}{
		{core.Coarse, 2 * n, 0},
		{core.Eager, 2 * n, 2 * n},
	} {
		t.Run(tc.mode.String(), func(t *testing.T) {
			var f certLinkFrames
			c := newNetClusterWith(t, tc.mode, func(nc *NetConfig) { nc.DialerFor = f.dialerFor })
			s := c.SessionWithID("counted")
			defer s.Close()
			for i := 0; i < n; i++ {
				tx, err := s.Begin("")
				if err != nil {
					t.Fatal(err)
				}
				if _, err := tx.ExecSQL(`UPDATE kv SET v = 'counted' WHERE k = 1`); err != nil {
					t.Fatal(err)
				}
				if res, err := tx.Commit(); err != nil || res.ReadOnly {
					t.Fatalf("commit %d = %+v, %v", i, res, err)
				}
			}
			// Lazy refreshes are still in flight; let every replica apply
			// them, so an acknowledgment that was going to be sent has been.
			waitApplied(t, c, c.Certifier().Version())
			if got := f.acks.Load(); got != tc.acks {
				t.Errorf("%d acknowledgment frames on the subscription connections, want %d", got, tc.acks)
			}
			if got := f.req.Load(); got != tc.req {
				t.Errorf("%d frames on the request connections, want %d", got, tc.req)
			}
		})
	}
}

// TestNetworkedDeferredStart checks where the start of a networked
// transaction now sits: nothing is pinned at Begin, and the balancer's
// start rule runs when the first request arrives — so an update
// acknowledged between another session's Begin and its first statement
// is visible to it, which Definition 1 (held to the time of Begin) does
// not even require.
func TestNetworkedDeferredStart(t *testing.T) {
	for _, mode := range []core.Mode{core.Coarse, core.Fine} {
		t.Run(mode.String(), func(t *testing.T) {
			c := newNetCluster(t, mode)
			read, _ := sql.Prepare(`SELECT v FROM kv WHERE k = 3`)
			write, _ := sql.Prepare(`UPDATE kv SET v = ? WHERE k = 3`)
			c.RegisterTxn("readKV", read)
			c.RegisterTxn("writeKV", write)
			a, b := c.SessionWithID("a"), c.SessionWithID("b")
			defer a.Close()
			defer b.Close()

			for i, first := range []string{"exec", "commit"} {
				want := fmt.Sprintf("acked-%d", i)
				btx, err := b.Begin("readKV")
				if err != nil {
					t.Fatal(err)
				}
				if snap := btx.Snapshot(); snap != 0 {
					t.Fatalf("snapshot %d pinned at Begin", snap)
				}
				atx, err := a.Begin("writeKV")
				if err != nil {
					t.Fatal(err)
				}
				if _, err := atx.Exec(write, want); err != nil {
					t.Fatal(err)
				}
				acked, err := atx.Commit()
				if err != nil {
					t.Fatal(err)
				}
				if first == "exec" {
					res, err := btx.Exec(read)
					if err != nil {
						t.Fatal(err)
					}
					if got := res.Rows[0][0].(string); got != want {
						t.Fatalf("b read %q, want the update acknowledged before its first statement (%q)", got, want)
					}
					if snap := btx.Snapshot(); snap < acked.Version {
						t.Fatalf("snapshot %d after the first statement, want >= %d", snap, acked.Version)
					}
				}
				res, err := btx.Commit()
				if err != nil {
					t.Fatal(err)
				}
				if !res.ReadOnly || res.Version < acked.Version || res.Version != btx.Snapshot() {
					t.Fatalf("b committed %+v at snapshot %d, want read-only at a snapshot >= %d", res, btx.Snapshot(), acked.Version)
				}
			}
			if violations := history.CheckStrong(c.Recorder().Events()); len(violations) != 0 {
				t.Fatalf("strong-consistency violations: %v", violations)
			}
		})
	}
}

// TestNetworkedStartErrorsSurfaceFromFirstStatement: with no replica to
// route to, Begin still succeeds (it sends nothing) and the first
// request reports it; the transaction is then over.
func TestNetworkedStartErrorsSurfaceFromFirstStatement(t *testing.T) {
	var fc frameCounter
	c := newNetClusterWith(t, core.Coarse, func(n *NetConfig) { n.DialerFor = fc.dialerFor })
	s := c.SessionWithID("nowhere")
	defer s.Close()
	for i := 0; i < c.NumReplicas(); i++ {
		c.Replica(i).Crash()
	}
	// The first transactions find the crashed replicas out; from then on
	// the balancer has nowhere to route.
	var err error
	for i := 0; i < 2*c.NumReplicas() && !errors.Is(err, wire.ErrUnavailable); i++ {
		tx, berr := s.Begin("")
		if berr != nil {
			t.Fatalf("Begin reported %v: it sends nothing", berr)
		}
		if _, err = tx.ExecSQL(`SELECT v FROM kv WHERE k = 1`); err == nil {
			t.Fatal("statement ran on a crashed cluster")
		}
		before := fc.client.Load()
		if _, err2 := tx.ExecSQL(`SELECT v FROM kv WHERE k = 1`); !errors.Is(err2, replica.ErrTxnDone) {
			t.Fatalf("second statement after a failed start: %v, want ErrTxnDone", err2)
		}
		if _, err2 := tx.Commit(); !errors.Is(err2, replica.ErrTxnDone) {
			t.Fatalf("commit after a failed start: %v, want ErrTxnDone", err2)
		}
		tx.Abort()
		if after := fc.client.Load(); after != before {
			t.Fatalf("a finished transaction sent %d frames", after-before)
		}
	}
	if !errors.Is(err, wire.ErrUnavailable) {
		t.Fatalf("no replica live, first statement error = %v, want wire.ErrUnavailable", err)
	}
	tx, _ := s.Begin("")
	if _, err := tx.Commit(); !errors.Is(err, wire.ErrUnavailable) {
		t.Fatalf("bare commit with no replica live: %v, want wire.ErrUnavailable", err)
	}
}

// dropResponses wraps the client link: while armed, the next response
// is read off the socket — the gateway did serve the request — and
// thrown away with the connection.
type dropResponses struct{ armed atomic.Bool }

func (d *dropResponses) dial(network, addr string) (net.Conn, error) {
	c, err := net.Dial(network, addr)
	if err != nil {
		return nil, err
	}
	return &droppingConn{Conn: c, d: d}, nil
}

type droppingConn struct {
	net.Conn
	d *dropResponses
}

func (c *droppingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 && c.d.armed.CompareAndSwap(true, false) {
		c.Conn.Close()
		return 0, errors.New("test: response dropped")
	}
	return n, err
}

// TestNetworkedLostFirstResponseRetries drops the response to the
// request that carries the begin header and a statement. Nothing can
// have committed, so the session retries it once on a fresh connection
// under a new epoch, and the gateway aborts the orphan when the old
// connection dies: every increment lands exactly once.
func TestNetworkedLostFirstResponseRetries(t *testing.T) {
	var drop dropResponses
	c := newNetClusterWith(t, core.Coarse, func(n *NetConfig) {
		n.DialerFor = func(link string) wire.Dialer {
			if link == LinkClient {
				return drop.dial
			}
			return nil
		}
	})
	if err := c.ExecSchemaAll(`CREATE TABLE counter (id INT, n INT, PRIMARY KEY (id))`); err != nil {
		t.Fatal(err)
	}
	s := c.SessionWithID("lossy")
	defer s.Close()
	run := func(q string) *sql.Result {
		t.Helper()
		tx, err := s.Begin("")
		if err != nil {
			t.Fatal(err)
		}
		res, err := tx.ExecSQL(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		return res
	}
	run(`INSERT INTO counter VALUES (1, 0)`)

	const rounds = 5
	for i := 1; i <= rounds; i++ {
		drop.armed.Store(true)
		run(`UPDATE counter SET n = n + 1 WHERE id = 1`)
		if drop.armed.Load() {
			t.Fatal("no response was dropped")
		}
		if got, want := s.effectiveID(), fmt.Sprintf("lossy#%d", i); got != want {
			t.Fatalf("round %d ran as %q, want one reconnect per dropped response (%q)", i, got, want)
		}
	}
	if got := run(`SELECT n FROM counter WHERE id = 1`).Rows[0][0].(int64); got != rounds {
		t.Fatalf("counter = %d after %d increments: a retried statement ran twice or not at all", got, rounds)
	}

	// A request that carries the commit is never retried: the commit may
	// have happened.
	drop.armed.Store(true)
	tx, _ := s.Begin("")
	if _, err := tx.Commit(); err == nil {
		t.Fatal("a bare commit whose response was lost reported success")
	}
	if got, want := s.effectiveID(), fmt.Sprintf("lossy#%d", rounds); got != want {
		t.Fatalf("session epoch moved to %q during a commit, want %q", got, want)
	}
}

// TestNetworkedKilledStatementIsTerminal: early certification kills a
// networked transaction on its second statement — a conflicting refresh
// finds its partial writeset. Replica and gateway have both ended it, and
// over the wire that verdict is the one conflict code: the client ends it
// too. Abort then sends nothing and counts nothing.
func TestNetworkedKilledStatementIsTerminal(t *testing.T) {
	var fc frameCounter
	c := newNetClusterWith(t, core.Coarse, func(n *NetConfig) { n.DialerFor = fc.dialerFor })
	victim, winner := c.SessionWithID("victim"), c.SessionWithID("winner")
	defer victim.Close()
	defer winner.Close()
	const write = `UPDATE kv SET v = ? WHERE k = 5`

	vtx, _ := victim.Begin("")
	if _, err := vtx.ExecSQL(write, "victim"); err != nil {
		t.Fatal(err)
	}
	// The victim's replica has a transaction open, so the winner is routed
	// elsewhere and reaches the victim's replica as a refresh.
	wtx, _ := winner.Begin("")
	if _, err := wtx.ExecSQL(write, "winner"); err != nil {
		t.Fatal(err)
	}
	res, err := wtx.Commit()
	if err != nil {
		t.Fatal(err)
	}
	waitApplied(t, c, res.Version)

	aborted := c.Collector().Snapshot().Aborted
	if _, err := vtx.ExecSQL(`SELECT v FROM kv WHERE k = 5`); !errors.Is(err, replica.ErrCertifyConflict) {
		t.Fatalf("second statement of a killed transaction: %v, want a conflict", err)
	}
	frames := fc.client.Load()
	vtx.Abort()
	if _, err := vtx.Commit(); !errors.Is(err, replica.ErrTxnDone) {
		t.Fatalf("commit after the kill: %v, want ErrTxnDone", err)
	}
	if got := fc.client.Load() - frames; got != 0 {
		t.Errorf("aborting a transaction the wire had already ended sent %d frames", got)
	}
	if got := c.Collector().Snapshot().Aborted - aborted; got != 1 {
		t.Errorf("the killed transaction was counted as %d aborts", got)
	}
	waitQuiet(t, c)
}

// mangleWrites wraps the client link: while armed, the next frame
// written is dropped (reported written, never sent) or sent twice.
type mangleWrites struct{ drop, dup atomic.Bool }

func (m *mangleWrites) dial(network, addr string) (net.Conn, error) {
	c, err := net.Dial(network, addr)
	if err != nil {
		return nil, err
	}
	return &mangledConn{Conn: c, m: m}, nil
}

type mangledConn struct {
	net.Conn
	m *mangleWrites
}

func (c *mangledConn) Write(p []byte) (int, error) {
	switch {
	case c.m.drop.CompareAndSwap(true, false):
		return len(p), nil
	case c.m.dup.CompareAndSwap(true, false):
		p = append(append([]byte(nil), p...), p...)
		n, err := c.Conn.Write(p)
		return n / 2, err
	}
	return c.Conn.Write(p)
}

// TestNetworkedOneWayFrameLostOrDoubled: a one-way frame has no response
// to miss, but it consumes a sequence number like any other. Dropped, it
// is a gap at the session's next frame; doubled, a repeat at once. Either
// way the gateway closes the connection — which aborts what the lost
// commit left open — and the session goes on under a new epoch.
func TestNetworkedOneWayFrameLostOrDoubled(t *testing.T) {
	var m mangleWrites
	c := newNetClusterWith(t, core.Session, func(n *NetConfig) {
		n.DialerFor = func(link string) wire.Dialer {
			if link == LinkClient {
				return m.dial
			}
			return nil
		}
	})
	s := c.SessionWithID("mangled")
	defer s.Close()
	read := func() {
		t.Helper()
		tx, _ := s.Begin("")
		if _, err := tx.ExecSQL(`SELECT v FROM kv WHERE k = 1`); err != nil {
			t.Fatal(err)
		}
		if res, err := tx.Commit(); err != nil || !res.ReadOnly {
			t.Fatalf("commit = %+v, %v", res, err)
		}
	}
	read()
	for epoch, arm := range []*atomic.Bool{&m.drop, &m.dup} {
		// The armed frame is the read's commit: the statement before it
		// was answered. The commit reports success either way — the read
		// saw one consistent snapshot and has no effect.
		tx, _ := s.Begin("")
		if _, err := tx.ExecSQL(`SELECT v FROM kv WHERE k = 1`); err != nil {
			t.Fatal(err)
		}
		arm.Store(true)
		if res, err := tx.Commit(); err != nil || !res.ReadOnly {
			t.Fatalf("commit = %+v, %v", res, err)
		}
		if arm.Load() {
			t.Fatal("the commit wrote no frame")
		}
		// The next transaction's first request finds the connection
		// closed, or is the frame that shows the gap; it carries no
		// commit, so it is retried on a fresh connection.
		read()
		if got, want := s.effectiveID(), fmt.Sprintf("mangled#%d", epoch+1); got != want {
			t.Fatalf("session runs as %q, want %q", got, want)
		}
		waitQuiet(t, c)
	}
	if violations := history.CheckMonotonicSessions(c.Recorder().Events()); len(violations) != 0 {
		t.Fatalf("monotonic-session violations: %v", violations)
	}
}

// TestNetworkedParamTypes: a statement takes every parameter type the
// SQL layer takes — Go's int, int32, uint32 and float32 widen to the
// canonical row values on the client — and a type the SQL layer refuses
// fails with its error before anything is sent.
func TestNetworkedParamTypes(t *testing.T) {
	var fc frameCounter
	c := newNetClusterWith(t, core.Coarse, func(n *NetConfig) { n.DialerFor = fc.dialerFor })
	if err := c.ExecSchemaAll(`CREATE TABLE p (id INT, i INT, f FLOAT, s TEXT, b BOOL, PRIMARY KEY (id))`); err != nil {
		t.Fatal(err)
	}
	s := c.SessionWithID("params")
	defer s.Close()
	for id, tc := range []struct {
		col         string
		param, want any
	}{
		{"i", int(7), int64(7)},
		{"i", int32(-7), int64(-7)},
		{"i", uint32(7), int64(7)},
		{"i", int64(7), int64(7)},
		{"f", float32(1.5), float64(1.5)},
		{"f", 2.5, 2.5},
		{"s", "x", "x"},
		{"b", true, true},
		{"s", nil, nil},
	} {
		tx, _ := s.Begin("")
		if _, err := tx.ExecSQL(fmt.Sprintf(`INSERT INTO p (id, %s) VALUES (?, ?)`, tc.col), id, tc.param); err != nil {
			t.Fatalf("%T parameter: %v", tc.param, err)
		}
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		tx, _ = s.Begin("")
		res, err := tx.ExecSQL(fmt.Sprintf(`SELECT %s FROM p WHERE id = ?`, tc.col), id)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		if got := res.Rows[0][0]; got != tc.want {
			t.Errorf("%T parameter %v stored as %T %v, want %T %v", tc.param, tc.param, got, got, tc.want, tc.want)
		}
	}

	for _, bad := range []any{uint64(7), []byte("x"), struct{}{}} {
		tx, _ := s.Begin("")
		before := fc.client.Load()
		_, err := tx.ExecSQL(`SELECT v FROM kv WHERE k = ?`, bad)
		if err == nil || !strings.Contains(err.Error(), "sql: unsupported parameter type") {
			t.Errorf("%T parameter: %v, want the SQL layer's refusal", bad, err)
		}
		if sent := fc.client.Load() - before; sent != 0 {
			t.Errorf("%T parameter: %d frames sent", bad, sent)
		}
	}
}

// TestNetworkedStageMeans: the replicas feed Figure 4 — every stage a
// committed transaction visits, and the sync-delay series — into the
// cluster's collector, though no client ever sees a stage.
func TestNetworkedStageMeans(t *testing.T) {
	c := newNetCluster(t, core.Coarse)
	s := c.SessionWithID("staged")
	defer s.Close()
	for i := 0; i < 20; i++ {
		tx, _ := s.Begin("")
		q := `SELECT v FROM kv WHERE k = 1`
		if i%2 == 0 {
			q = `UPDATE kv SET v = 'staged' WHERE k = 1`
		}
		if _, err := tx.ExecSQL(q); err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	// A read's commit is a one-way frame: its replica finishes it later.
	waitQuiet(t, c)
	snap := c.Collector().Snapshot()
	for _, st := range []metrics.Stage{metrics.StageVersion, metrics.StageQueries, metrics.StageCertify, metrics.StageCommit} {
		if snap.StageMeans[st] <= 0 {
			t.Errorf("%s stage mean = %v", st, snap.StageMeans[st])
		}
	}
	if snap.MeanSync <= 0 || snap.MeanReadSync <= 0 {
		t.Errorf("mean sync = %v, read-only %v", snap.MeanSync, snap.MeanReadSync)
	}
}

// TestLinkChargesOneWay pins the latency model's network charge: with
// only OneWay set, every message pays it once, on the link that carries
// it. A one-statement read pays 5 (client → gateway → replica and back,
// then the one-way commit frame); a one-statement update pays 10 (the
// statement's 4, and the commit's client → gateway → replica →
// certifier and back); under ESC with a second replica the update's
// commit also waits for the refresh → apply ack → global-commit notice
// exchange, of which 2 messages are not hidden behind the certify
// answer: 12.
func TestLinkChargesOneWay(t *testing.T) {
	const ow = 20 * time.Millisecond
	for _, tc := range []struct {
		mode         core.Mode
		replicas     int
		read, update int
	}{
		{core.Coarse, 1, 5, 10},
		{core.Eager, 2, 5, 12},
	} {
		t.Run(tc.mode.String(), func(t *testing.T) {
			c, err := New(Config{Replicas: tc.replicas, Mode: tc.mode, Latency: latency.Model{OneWay: ow}})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(c.Close)
			if err := c.LoadData(loadNetKV); err != nil {
				t.Fatal(err)
			}
			s := c.SessionWithID("timed")
			defer s.Close()
			run := func(q string) time.Duration {
				t.Helper()
				start := time.Now()
				tx, _ := s.Begin("")
				if _, err := tx.ExecSQL(q); err != nil {
					t.Fatal(err)
				}
				if _, err := tx.Commit(); err != nil {
					t.Fatal(err)
				}
				return time.Since(start)
			}
			// The fewest of a few runs: a new connection's hello, or a pooled
			// one a status probe holds, can only add messages.
			read, update := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
			for i := 0; i < 4; i++ {
				read = min(read, run(`SELECT v FROM kv WHERE k = 1`))
				update = min(update, run(`UPDATE kv SET v = 'timed' WHERE k = 1`))
			}
			for _, m := range []struct {
				what string
				took time.Duration
				hops int
			}{{"read", read, tc.read}, {"update", update, tc.update}} {
				want := time.Duration(m.hops) * ow
				if m.took < want || m.took >= want+ow {
					t.Errorf("one-statement %s took %v, want %d one-way delays: at least %v, less than one more", m.what, m.took, m.hops, want)
				}
			}
		})
	}
}
