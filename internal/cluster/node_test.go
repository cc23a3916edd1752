package cluster

import (
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
	"sconrep/internal/wire"
	"sconrep/internal/writeset"
)

func certifyKey(t *testing.T, c *certifier.Certifier, txnID uint64) {
	t.Helper()
	ws := &writeset.WriteSet{Items: []writeset.Item{
		{Table: "t", Key: fmt.Sprintf("k%d", txnID), Op: writeset.OpUpdate, Row: []any{"x"}},
	}}
	if d, err := c.Certify(0, txnID, c.Version(), ws); err != nil || !d.Commit {
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
	return openCertifier(CertifierConfig{WALPath: path})
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
		Timeouts: wire.Timeouts{Call: 5 * time.Second, LongPoll: 5 * time.Second, Idle: 2 * time.Second},
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
