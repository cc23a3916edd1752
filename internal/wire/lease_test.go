package wire

import (
	"bytes"
	"log"
	"os"
	"strings"
	"testing"
	"time"

	"sconrep/internal/certifier"
)

func serveLeased(t *testing.T, lease time.Duration) (*certifier.Certifier, *CertServer) {
	t.Helper()
	cert := certifier.New()
	srv, err := ServeCertifier(cert, "127.0.0.1:0", WithSubLease(lease))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return cert, srv
}

// TestSubAckCarriesLease: the certifier's lease rides every subAck, and
// a client serves for a quarter of it after its stream drops — for none
// before the first subAck.
func TestSubAckCarriesLease(t *testing.T) {
	_, srv := serveLeased(t, 2*time.Second)
	if _, ack := subscribeRaw(t, srv.Addr(), certHello{ReplicaID: 1}); ack.Lease != 2*time.Second {
		t.Fatalf("subAck lease = %s, want 2s", ack.Lease)
	}
	cli := DialCertifier(srv.Addr(), 2, 0, WithTimeouts(Timeouts{Idle: 400 * time.Millisecond}))
	defer cli.Close()
	if g := cli.Grace(); g != 0 {
		t.Fatalf("grace before any subAck = %s, want 0", g)
	}
	cli.Subscribe(2)
	waitFor(t, "the stream", func() bool { return cli.StreamLive(0) })
	if g := cli.Grace(); g != 500*time.Millisecond {
		t.Fatalf("grace under a 2s lease = %s, want 500ms", g)
	}
}

// TestLeaseRefused: a client whose idle detector leaves no room for the
// certifier's lease (idle + lease/4 >= lease) says so once, with both
// values, and never reports its stream up, so a replica's serve gate
// stays shut. The stream still delivers refreshes: the replica keeps
// applying, and acknowledging, what it will not serve.
func TestLeaseRefused(t *testing.T) {
	var logged bytes.Buffer
	log.SetOutput(&logged)
	defer log.SetOutput(os.Stderr)
	cert, srv := serveLeased(t, 100*time.Millisecond)
	cli := DialCertifier(srv.Addr(), 1, 0, WithTimeouts(Timeouts{Idle: 100 * time.Millisecond}),
		WithBackoff(Backoff{Min: time.Millisecond, Max: 10 * time.Millisecond}))
	defer cli.Close()
	q := cli.Subscribe(1)
	certifyN(t, cert, 1)
	if batch, ok := q.Take(); !ok || batch[len(batch)-1].Version != cert.Version() {
		t.Fatalf("refresh under a refused lease: batch %+v, ok %v", batch, ok)
	}
	// Several idle reconnects, each answered with the same lease.
	for deadline := time.Now().Add(350 * time.Millisecond); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if cli.StreamLive(0) || cli.Ready(cli.Grace()) {
			t.Fatal("stream reported up under a refused lease")
		}
	}
	if n := strings.Count(logged.String(), "refuses the lease"); n != 1 {
		t.Fatalf("refusal logged %d times, want once:\n%s", n, logged.String())
	}
	if out := logged.String(); !strings.Contains(out, "idle 100ms") || !strings.Contains(out, "lease 100ms") {
		t.Fatalf("refusal does not name both values: %s", out)
	}
}

// TestCheckLease pins the rule at its boundary: idle + lease/4 must be
// below the lease, a zero lease is the default, and a zero idle runs no
// detector and is not checked.
func TestCheckLease(t *testing.T) {
	for _, tc := range []struct {
		idle, lease time.Duration
		ok          bool
	}{
		{400 * time.Millisecond, 2 * time.Second, true},
		{5 * time.Second, 10 * time.Second, true},
		{5 * time.Second, 0, true},
		{7499 * time.Millisecond, 0, true},
		{7500 * time.Millisecond, 0, false},
		{750 * time.Millisecond, time.Second, false},
		{400 * time.Millisecond, 400 * time.Millisecond, false},
		{0, time.Millisecond, true},
	} {
		if err := CheckLease(tc.idle, tc.lease); (err == nil) != tc.ok {
			t.Errorf("CheckLease(%s, %s) = %v, want ok %v", tc.idle, tc.lease, err, tc.ok)
		}
	}
}
