package main

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"sconrep/internal/certifier"
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

// TestOpenCertifierRestart drives the certifier role's restart path: a
// torn tail is cut off and appended over, decisions made after a
// restart survive the next one, and mid-log damage is refused with the
// file left as it was.
func TestOpenCertifierRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cert.wal")
	c, err := openCertifier(path, nil)
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
	c, err = openCertifier(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.Version() != 5 || fileSize(t, path) != valid {
		t.Fatalf("reopened at version %d with %d bytes, want 5 and %d", c.Version(), fileSize(t, path), valid)
	}

	certifyKey(t, c, 6)
	c, err = openCertifier(path, nil)
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
	if _, err := openCertifier(path, nil); err == nil {
		t.Fatal("mid-log corruption accepted")
	}
	if got := fileSize(t, path); got != int64(len(data)) {
		t.Fatalf("refused log was cut from %d to %d bytes", len(data), got)
	}
}
