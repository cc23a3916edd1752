package wire

import (
	"fmt"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sconrep/internal/certifier"
	"sconrep/internal/core"
	"sconrep/internal/obs/dtrace"
	"sconrep/internal/shard"
	"sconrep/internal/writeset"
)

// BenchmarkWireRefreshStream measures end-to-end refresh delivery over
// a real TCP subscription link: certify on the server side, consume
// the replica-side queue. The number reflects the frame batching (one
// frame per mailbox Take, never per refresh) and the zero-copy decode.
func BenchmarkWireRefreshStream(b *testing.B) {
	cert := certifier.New()
	srv, err := ServeCertifier(cert, "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	cli := DialCertifier(srv.Addr(), 1, 0)
	defer cli.Close()
	q := cli.Subscribe(1)

	deadline := time.Now().Add(5 * time.Second)
	for !cli.StreamLive(0) {
		if time.Now().After(deadline) {
			b.Fatal("refresh stream never came up")
		}
		time.Sleep(time.Millisecond)
	}

	ws := &writeset.WriteSet{Items: []writeset.Item{
		{Table: "t", Key: "hot", Op: writeset.OpUpdate, Row: []any{"x"}},
	}}
	done := make(chan struct{})
	last := uint64(b.N)

	b.ReportAllocs()
	b.ResetTimer()
	go func() {
		defer close(done)
		// Trim consumed history as a deployed replica's apply watermark
		// would: without it the certifier retains all b.N refreshes and
		// the run measures GC scan work over an ever-growing log — a cost
		// that scales with iteration count, not with the codec under test.
		var seen, trimmed uint64
		for seen < last {
			batch, ok := q.Take()
			if !ok {
				return
			}
			for i := range batch {
				if batch[i].Version > seen {
					seen = batch[i].Version
				}
			}
			if seen-trimmed >= 4096 {
				cert.TrimBelow(seen)
				trimmed = seen
			}
		}
	}()
	for i := 0; i < b.N; i++ {
		// Snapshot tracks the version counter, so the single hot key
		// never conflicts and every certification becomes a refresh.
		d, err := cert.Certify(0, uint64(i+1), uint64(i), ws)
		if err != nil {
			b.Fatal(err)
		}
		if !d.Commit {
			b.Fatalf("certify %d aborted", i+1)
		}
	}
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		b.Fatal("stream consumer stalled")
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "refreshes/s")
}

// BenchmarkWirePartialSubscription measures what partial refresh
// subscriptions save on the wire: a hand-rolled subscriber (so the
// link's raw bytes are countable) consumes a 4-shard refresh stream
// spread evenly over tables t0..t3 while subscribing to all, half, or
// one of the shards. Every version still arrives — skip markers keep
// the order contiguous — so bytes/refresh must drop roughly with the
// subscribed fraction.
func BenchmarkWirePartialSubscription(b *testing.B) {
	for _, tc := range []struct {
		name   string
		shards []int
	}{
		{"full", nil},
		{"half", []int{0, 1}},
		{"quarter", []int{0}},
	} {
		b.Run(tc.name, func(b *testing.B) { benchPartialSubscription(b, tc.shards) })
	}
}

func benchPartialSubscription(b *testing.B, shards []int) {
	smap, err := shard.New(4, map[string]int{"t0": 0, "t1": 1, "t2": 2, "t3": 3})
	if err != nil {
		b.Fatal(err)
	}
	cert := certifier.New(certifier.WithShards(smap))
	srv, err := ServeCertifier(cert, "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	fc, _ := subscribeRaw(b, srv.Addr(), certHello{ReplicaID: 1, Shards: shards})
	fc.c.SetDeadline(time.Time{})

	// A realistic row payload so the full-writeset versus skip-marker
	// gap dominates the fixed framing.
	row := []any{strings.Repeat("v", 96), int64(7), strings.Repeat("w", 32)}
	var read int
	done := make(chan error, 1)
	last := uint64(b.N)

	b.ReportAllocs()
	b.ResetTimer()
	go func() {
		var seen, trimmed uint64
		for seen < last {
			p, err := fc.readFrame()
			if err != nil {
				done <- err
				return
			}
			read += 4 + len(p)
			var batch refreshBatch
			if err := parsePayload(p, &batch); err != nil {
				done <- err
				return
			}
			for i := range batch {
				if v := batch[i].Version; v > seen {
					seen = v
				}
			}
			if seen-trimmed >= 4096 {
				cert.TrimBelow(seen)
				trimmed = seen
			}
		}
		done <- nil
	}()
	for i := 0; i < b.N; i++ {
		ws := &writeset.WriteSet{Items: []writeset.Item{
			{Table: fmt.Sprintf("t%d", i%4), Key: fmt.Sprintf("k%d", i), Op: writeset.OpUpdate, Row: row},
		}}
		d, err := cert.Certify(0, uint64(i+1), uint64(i), ws)
		if err != nil {
			b.Fatal(err)
		}
		if !d.Commit {
			b.Fatalf("certify %d aborted", i+1)
		}
	}
	fc.c.SetReadDeadline(time.Now().Add(30 * time.Second))
	if err := <-done; err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	b.ReportMetric(float64(read)/float64(b.N), "bytes/refresh")
}

// frameCountConn counts the frames one connection moves: socket writes
// plus non-empty reads, one per message either way.
type frameCountConn struct {
	net.Conn
	n *atomic.Int64
}

func (c frameCountConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.n.Add(1)
	}
	return n, err
}

func (c frameCountConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if n > 0 {
		c.n.Add(1)
	}
	return n, err
}

// countingDialer dials connections that count their frames into n.
func countingDialer(n *atomic.Int64) Dialer {
	return func(network, addr string) (net.Conn, error) {
		c, err := net.Dial(network, addr)
		if err != nil {
			return nil, err
		}
		return frameCountConn{c, n}, nil
	}
}

// BenchmarkWireRoundTrip measures what the links cost a transaction
// over loopback TCP. On the two request links (client → gateway →
// replica and back): an eager begin and its abort, and a one-statement
// read transaction whose begin rides on the statement — one round trip
// each and then a frame nobody waits for, the abort or the read-only
// commit; the read reports every frame the client link moved. With the
// certifier links behind them: a one-statement update on three replicas,
// which adds an answered commit, the certify exchange and the refresh
// fan-out, and reports every frame the certifier links moved — under
// CSC, and under ESC, where the commit also waits for two apply
// acknowledgments and the certifier's notice, all on the streams.
func BenchmarkWireRoundTrip(b *testing.B) {
	d := newDeployment(b, 1, core.Coarse)
	var clientFrames atomic.Int64
	c, err := Dial(d.gateway.Addr(), "bench", WithDialer(countingDialer(&clientFrames)))
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	// Every deployment starts here and not inside b.Run: what a start
	// logs would land in the middle of a sub-benchmark's result line.
	updates := []struct {
		name       string
		mode       core.Mode
		certFrames atomic.Int64
		c          *Client
	}{{name: "update-txn", mode: core.Coarse}, {name: "update-txn-esc", mode: core.Eager}}
	for i := range updates {
		u := &updates[i]
		d3 := newDeploymentWith(b, 3, u.mode, WithDialer(countingDialer(&u.certFrames)))
		if u.c, err = Dial(d3.gateway.Addr(), "bench"); err != nil {
			b.Fatal(err)
		}
		defer u.c.Close()
	}
	b.Run("begin-abort", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := c.BeginTx("bench.txn"); err != nil {
				b.Fatal(err)
			}
			if err := c.Abort(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("read-txn", func(b *testing.B) {
		b.ReportAllocs()
		start := clientFrames.Load()
		for i := 0; i < b.N; i++ {
			c.Start("bench.txn", nil, dtrace.SpanContext{})
			if _, err := c.Exec(`SELECT v FROM kv WHERE k = ?`, int64(i%10)); err != nil {
				b.Fatal(err)
			}
			if _, _, err := c.Commit(); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(clientFrames.Load()-start)/float64(b.N), "clientframes/op")
	})
	for i := range updates {
		u := &updates[i]
		b.Run(u.name, func(b *testing.B) {
			b.ReportAllocs()
			start := u.certFrames.Load()
			for i := 0; i < b.N; i++ {
				u.c.Start("bench.txn", nil, dtrace.SpanContext{})
				if _, err := u.c.Exec(`UPDATE kv SET v = 'u' WHERE k = ?`, int64(i%10)); err != nil {
					b.Fatal(err)
				}
				if _, _, err := u.c.Commit(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(u.certFrames.Load()-start)/float64(b.N), "certframes/op")
		})
	}
}
