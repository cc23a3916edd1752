package cluster

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sconrep/internal/certifier"
	"sconrep/internal/core"
	"sconrep/internal/history"
	"sconrep/internal/obs"
	"sconrep/internal/replica"
	"sconrep/internal/storage"
	"sconrep/internal/wire"
	"sconrep/internal/writeset"
)

func keyWS(txnID uint64) *writeset.WriteSet {
	return &writeset.WriteSet{Items: []writeset.Item{
		{Table: "t", Key: fmt.Sprintf("k%d", txnID), Op: writeset.OpUpdate, Row: []any{"x"}},
	}}
}

func certifyKey(t *testing.T, c *certifier.Certifier, txnID uint64) {
	t.Helper()
	if d, err := c.Certify(0, txnID, c.Version(), keyWS(txnID)); err != nil || !d.Commit {
		t.Fatalf("certify %d: %+v, %v", txnID, d, err)
	}
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// reopenCertifier opens the decision log at path the way a restarting
// certifier node does.
func reopenCertifier(path string) (*certifier.Certifier, error) {
	c, _, err := openCertifier(CertifierConfig{WALPath: path})
	return c, err
}

// TestOpenCertifierRestart drives the certifier node's restart path: a
// torn tail is cut off and appended over, decisions made after a
// restart survive the next one, and mid-log damage is refused with the
// file left as it was.
func TestOpenCertifierRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cert.wal")
	c, err := reopenCertifier(path)
	if err != nil {
		t.Fatal(err)
	}
	for id := uint64(1); id <= 5; id++ {
		certifyKey(t, c, id)
	}
	valid := fileSize(t, path)

	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("garbage")); err != nil {
		t.Fatal(err)
	}
	f.Close()
	c, err = reopenCertifier(path)
	if err != nil {
		t.Fatal(err)
	}
	if c.Version() != 5 || fileSize(t, path) != valid {
		t.Fatalf("reopened at version %d with %d bytes, want 5 and %d", c.Version(), fileSize(t, path), valid)
	}

	certifyKey(t, c, 6)
	c, err = reopenCertifier(path)
	if err != nil {
		t.Fatal(err)
	}
	if h := c.History(5); c.Version() != 6 || len(h) != 1 || h[0].Version != 6 || h[0].TxnID != 6 {
		t.Fatalf("after a sixth decision: version %d, History(5) = %v", c.Version(), h)
	}

	// A node restarted in process: Close gives the file up, so the node
	// it was can log nothing behind its successor's back.
	cfg := CertifierConfig{Listen: "127.0.0.1:0", WALPath: path}
	first, err := StartCertifier(cfg)
	if err != nil {
		t.Fatal(err)
	}
	certifyKey(t, first.Cert, 7)
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}
	second, err := StartCertifier(cfg)
	if err != nil {
		t.Fatal(err)
	}
	size := fileSize(t, path)
	if _, err := first.Cert.Certify(0, 8, first.Cert.Version(), keyWS(8)); err == nil {
		t.Fatal("a closed node's certifier still appends to the decision log")
	}
	if second.Cert.Version() != 7 || fileSize(t, path) != size {
		t.Fatalf("restarted at version %d with %d bytes, want 7 and %d", second.Cert.Version(), fileSize(t, path), size)
	}
	if err := second.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip a bit inside the first record: valid records follow it, so
	// this is not a torn tail.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[20] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := reopenCertifier(path); err == nil {
		t.Fatal("mid-log corruption accepted")
	}
	if got := fileSize(t, path); got != int64(len(data)) {
		t.Fatalf("refused log was cut from %d to %d bytes", len(data), got)
	}
}

// TestEagerGatewayNeedsEagerCertifier: a gateway in ESC mode over a
// certifier started without Eager. Nobody counts apply acknowledgments,
// so no commit would ever be reported global; each is refused with
// replica.ErrNotEager — typed through both hops, certified nowhere —
// instead of being acknowledged before any other replica applied it.
func TestEagerGatewayNeedsEagerCertifier(t *testing.T) {
	ncfg := NetConfig{
		Timeouts: wire.Timeouts{Call: 5 * time.Second, Idle: 2 * time.Second},
		Backoff:  wire.Backoff{Min: 5 * time.Millisecond, Max: 100 * time.Millisecond},
	}
	cert, err := StartCertifier(CertifierConfig{Listen: "127.0.0.1:0", Eager: false, Net: ncfg})
	if err != nil {
		t.Fatal(err)
	}
	defer cert.Close()
	gwCfg := GatewayConfig{Listen: "127.0.0.1:0", Mode: core.Eager, Net: ncfg}
	for id := 0; id < 2; id++ {
		r, err := StartReplica(ReplicaConfig{
			Replica:   replica.Config{ID: id, EarlyCert: true},
			Listen:    "127.0.0.1:0",
			Certifier: cert.Addr(),
			Bootstrap: func(e *storage.Engine) error {
				return e.CreateTable(&storage.Schema{Table: "kv", Key: []string{"k"},
					Columns: []storage.Column{{Name: "k", Type: storage.TInt}, {Name: "v", Type: storage.TInt}}})
			},
			Net: ncfg,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		for deadline := time.Now().Add(10 * time.Second); !r.Health().Ready; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("replica %d never ready: %+v", id, r.Health())
			}
		}
		gwCfg.Replicas = append(gwCfg.Replicas, r.Addr())
	}
	gw, err := StartGateway(gwCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()

	client, err := wire.Dial(gw.Addr(), "esc", wire.WithTimeouts(ncfg.Timeouts))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	before := cert.Cert.Version()
	if err := client.Begin(""); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Exec(`INSERT INTO kv VALUES (1, 1)`); err != nil {
		t.Fatal(err)
	}
	if _, _, err := client.Commit(); !errors.Is(err, replica.ErrNotEager) {
		t.Fatalf("ESC commit against a lazy certifier: %v, want replica.ErrNotEager", err)
	}
	if v := cert.Cert.Version(); v != before {
		t.Fatalf("the refused commit was certified (version %d → %d)", before, v)
	}
	// Reads need no global commit and still run.
	if err := client.Begin(""); err != nil {
		t.Fatal(err)
	}
	if res, err := client.Exec(`SELECT v FROM kv WHERE k = 1`); err != nil || len(res.Rows) != 0 {
		t.Fatalf("read after the refused commit: %+v, %v; want no row", res, err)
	}
	if _, _, err := client.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestPartialSubscriptions runs a networked two-shard cluster in which
// each replica subscribes to one shard: a transaction is routed only to
// the replica covering its table-set, a replica advances through the
// other shard's versions on skip markers, strong consistency holds, and
// a replica's lag gauge lists the tables it serves and no others.
func TestPartialSubscriptions(t *testing.T) {
	c, err := NewNetworked(Config{
		Replicas:      2,
		Mode:          core.Coarse,
		Seed:          53,
		RecordHistory: true,
		Shards:        2,
		ShardTables:   map[string]int{"counter": 0, "ref": 1},
		ReplicaShards: [][]int{{0}, {1}},
	}, NetConfig{
		Timeouts: wire.Timeouts{Call: 5 * time.Second, Idle: 2 * time.Second},
		Backoff:  wire.Backoff{Min: 5 * time.Millisecond, Max: 100 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if err := c.LoadData(loadCounter); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	c.EnableObs(reg, nil)

	// run commits one transaction over tables and returns what its
	// statement read.
	run := func(s *Session, tables []string, q string, args ...any) any {
		t.Helper()
		tx, err := s.BeginTables(tables)
		if err != nil {
			t.Fatal(err)
		}
		res, err := tx.ExecSQL(q, args...)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) == 0 {
			return nil
		}
		return res.Rows[0][0]
	}
	const rounds = 6
	writer, reader := c.SessionWithID("writer"), c.SessionWithID("reader")
	defer writer.Close()
	defer reader.Close()
	for i := int64(1); i <= rounds; i++ {
		run(writer, []string{"counter"}, `UPDATE counter SET n = ? WHERE id = 1`, i)
		if got := run(reader, []string{"counter"}, `SELECT n FROM counter WHERE id = 1`); got != i {
			t.Fatalf("round %d: read counter %v", i, got)
		}
		name := fmt.Sprintf("ref-%d", i)
		run(writer, []string{"ref"}, `UPDATE ref SET s = ? WHERE id = 1`, name)
		if got := run(reader, []string{"ref"}, `SELECT s FROM ref WHERE id = 1`); got != name {
			t.Fatalf("round %d: read ref %v", i, got)
		}
	}

	// Dense versions on both replicas: each applied half the commits as
	// skip markers.
	head := c.Certifier().Version()
	waitApplied(t, c, head)
	events := c.Recorder().Events()
	if v := history.CheckStrong(events); len(v) != 0 {
		t.Errorf("strong-consistency violations: %v", v)
	}
	if v := history.CheckSession(events); len(v) != 0 {
		t.Errorf("session-consistency violations: %v", v)
	}

	var sb strings.Builder
	reg.WritePrometheus(&sb)
	text := sb.String()
	for _, want := range []string{
		// Two transactions per table and round, all on the covering replica.
		fmt.Sprintf(`sconrep_lb_routed_total{replica="0"} %d`, 2*rounds),
		fmt.Sprintf(`sconrep_lb_routed_total{replica="1"} %d`, 2*rounds),
		`sconrep_replica_table_lag{replica="0",table="counter"} 0`,
		`sconrep_replica_table_lag{replica="1",table="ref"} 0`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition lacks %q", want)
		}
	}
	for _, unserved := range []string{
		`sconrep_replica_table_lag{replica="0",table="ref"}`,
		`sconrep_replica_table_lag{replica="1",table="counter"}`,
	} {
		if strings.Contains(text, unserved) {
			t.Errorf("exposition reports lag of an unserved table: %q", unserved)
		}
	}
	if t.Failed() {
		t.Logf("exposition:\n%s", text)
	}
}
