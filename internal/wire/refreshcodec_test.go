package wire

import (
	"bytes"
	"net"
	"reflect"
	"testing"
	"time"

	"sconrep/internal/certifier"
	"sconrep/internal/shard"
	"sconrep/internal/writeset"
)

// codecBatch exercises every shape a refresh frame must carry: all five
// row value types, nil rows (deletes), empty strings, an empty
// writeset, a version skip marker (nil writeset), a recovery-replay
// origin (-1), a traced writeset, and a global-commit notice.
func codecBatch() []certifier.Refresh {
	sc := testSpan()
	return []certifier.Refresh{
		{TxnID: 1, Version: 10, Origin: 0, WS: &writeset.WriteSet{Items: []writeset.Item{
			{Table: "kv", Key: "k1", Op: writeset.OpUpdate, Row: []any{int64(-7), "hello", float64(3.25), true, false, nil}},
			{Table: "kv", Key: "", Op: writeset.OpInsert, Row: []any{""}},
		}}},
		{TxnID: 2, Version: 11, Origin: -1, WS: &writeset.WriteSet{Items: []writeset.Item{
			{Table: "orders", Key: "o9", Op: writeset.OpDelete}, // nil row
		}}},
		{TxnID: 3, Version: 12, Origin: 2, WS: &writeset.WriteSet{}},
		{TxnID: 4, Version: 13, Origin: 1, WS: &writeset.WriteSet{
			Trace: &sc,
			Items: []writeset.Item{{Table: "t", Key: "x", Op: writeset.OpUpdate, Row: []any{}}},
		}},
		{TxnID: 5, Version: 14, Origin: 0}, // skip marker
		{Origin: 2, GlobalThrough: 13},     // global-commit notice
	}
}

func TestRefreshCodecCorruptRejected(t *testing.T) {
	// Payload-level corruption: unknown writeset flags, a trace without
	// the writeset it rides, counts beyond the payload, a bad op byte.
	bad := [][]byte{
		{0x01, 0x01, 0x01, 0x00, 0xff},       // unknown flag bits
		{0x01, 0x01, 0x01, 0x00, 0x02},       // flagTrace without the writeset
		{0xff, 0xff, 0xff, 0xff, 0xff, 0x02}, // count > remaining
	}
	valid, err := refreshBatch(codecBatch()).appendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	tamperOp := append([]byte{}, valid...)
	tamperOp[bytes.IndexByte(tamperOp, byte(writeset.OpUpdate))] = 0x7f
	bad = append(bad, tamperOp)
	for i, p := range bad {
		if err := parsePayload(p, new(refreshBatch)); err == nil {
			t.Fatalf("corrupt payload %d decoded cleanly", i)
		}
	}
}

// certifyN pushes n single-item committed updates through cert.
func certifyN(t testing.TB, cert *certifier.Certifier, n int) {
	t.Helper()
	ws := &writeset.WriteSet{Items: []writeset.Item{
		{Table: "t", Key: "hot", Op: writeset.OpUpdate, Row: []any{"x"}},
	}}
	for i := 0; i < n; i++ {
		d, err := cert.Certify(0, uint64(i+1), uint64(i), ws)
		if err != nil || !d.Commit {
			t.Fatalf("certify %d: commit=%v err=%v", i+1, d.Commit, err)
		}
	}
}

// subscribeRaw opens a hand-rolled subscription: the hello, then the
// ack, which the server writes only once the subscription is
// registered — so a commit certified after subscribeRaw returns is on
// the stream.
func subscribeRaw(t testing.TB, addr string, hello certHello) (*frameConn, subAck) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	fc := newFrameConn(conn)
	hello.Kind = linkCertSub
	if err := fc.send(&hello); err != nil {
		t.Fatal(err)
	}
	var ack subAck
	if _, err := fc.recvHello(string(linkSubAck), &ack); err != nil {
		t.Fatalf("subscription ack: %v", err)
	}
	return fc, ack
}

// TestRefreshStreamFrames drives the server's stream path with a
// hand-rolled subscriber at the certifier's version, so it has nothing
// to backfill: the ack carries the certifier's version at registration,
// then refresh frames arrive in version order.
func TestRefreshStreamFrames(t *testing.T) {
	cert := certifier.New()
	srv, err := ServeCertifier(cert, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	certifyN(t, cert, 2)
	fc, ack := subscribeRaw(t, srv.Addr(), certHello{ReplicaID: 7, VLocal: 2})
	if ack.Version != 2 || ack.Acks {
		t.Fatalf("ack = %+v, want the certifier's version at registration (2) and, nothing counting them, no apply acks asked for", ack)
	}
	ws := &writeset.WriteSet{Items: []writeset.Item{{Table: "t", Key: "cold", Op: writeset.OpUpdate, Row: []any{"x"}}}}
	for i := 0; i < 5; i++ {
		if d, err := cert.Certify(0, uint64(100+i), cert.Version(), ws); err != nil || !d.Commit {
			t.Fatalf("certify: %+v, %v", d, err)
		}
	}
	seen := ack.Version
	for seen < 7 {
		var batch refreshBatch
		if err := fc.recv(&batch); err != nil {
			t.Fatalf("refresh frame after version %d: %v", seen, err)
		}
		for i := range batch {
			if batch[i].Version != seen+1 {
				t.Fatalf("version %d out of order (want %d)", batch[i].Version, seen+1)
			}
			seen = batch[i].Version
			if got := batch[i].WS.Items[0].Row[0]; got != "x" {
				t.Fatalf("row value = %v", got)
			}
		}
	}
}

// newShardedCert builds a 4-shard certifier with tables t0..t3 pinned
// to shards 0..3.
func newShardedCert(t *testing.T) *certifier.Certifier {
	t.Helper()
	smap, err := shard.New(4, map[string]int{"t0": 0, "t1": 1, "t2": 2, "t3": 3})
	if err != nil {
		t.Fatal(err)
	}
	return certifier.New(certifier.WithShards(smap))
}

// certifyOn commits one single-row writeset on the given table.
func certifyOn(t *testing.T, cert *certifier.Certifier, table string, txnID uint64) {
	t.Helper()
	ws := &writeset.WriteSet{Items: []writeset.Item{
		{Table: table, Key: "k", Op: writeset.OpUpdate, Row: []any{"x"}},
	}}
	d, err := cert.Certify(0, txnID, cert.Version(), ws)
	if err != nil || !d.Commit {
		t.Fatalf("certify %s: commit=%v err=%v", table, d.Commit, err)
	}
}

// TestShardedStreamSubscriptions proves the partial-subscription
// contract on the stream: a subscriber declaring Shards gets full
// writesets for its shards and nil-writeset skip markers — version
// order still contiguous — for everything else, and a subscriber
// declaring none gets every writeset and no marker.
func TestShardedStreamSubscriptions(t *testing.T) {
	for _, tc := range []struct {
		name   string
		shards []int
		served map[uint64]bool // nil: everything
	}{
		{"full", nil, nil},
		{"partial", []int{0, 2}, map[uint64]bool{1: true, 3: true}}, // t0 → v1, t2 → v3
	} {
		t.Run(tc.name, func(t *testing.T) {
			cert := newShardedCert(t)
			srv, err := ServeCertifier(cert, "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			fc, _ := subscribeRaw(t, srv.Addr(), certHello{ReplicaID: 5, Shards: tc.shards})
			for i, table := range []string{"t0", "t1", "t2", "t3"} {
				certifyOn(t, cert, table, uint64(i+1))
			}
			var seen uint64
			for seen < 4 {
				var batch refreshBatch
				if err := fc.recv(&batch); err != nil {
					t.Fatalf("refresh frame after %d refreshes: %v", seen, err)
				}
				for _, r := range batch {
					if r.Version != seen+1 {
						t.Fatalf("version %d out of order (want %d): skip markers must keep the order contiguous", r.Version, seen+1)
					}
					seen = r.Version
					served := tc.served == nil || tc.served[r.Version]
					if served && (r.WS == nil || len(r.WS.Items) != 1) {
						t.Fatalf("version %d is on a subscribed shard but arrived as a skip marker", r.Version)
					}
					if !served && r.WS != nil {
						t.Fatalf("version %d is on an unsubscribed shard but carried writeset %+v", r.Version, r.WS)
					}
				}
			}
		})
	}
}

// TestShardedHistoryPartialRequest proves the backfill side of partial
// subscriptions: a subscription from version 0 over a history of four
// commits receives them on its stream ahead of any live refresh, with
// the same filtering as the live stream when it declares Shards, and
// every writeset when it declares none.
func TestShardedHistoryPartialRequest(t *testing.T) {
	cert := newShardedCert(t)
	srv, err := ServeCertifier(cert, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for i, table := range []string{"t0", "t1", "t2", "t3"} {
		certifyOn(t, cert, table, uint64(i+1))
	}
	backfill := func(shards []int) []certifier.Refresh {
		t.Helper()
		fc, ack := subscribeRaw(t, srv.Addr(), certHello{ReplicaID: 9, Shards: shards})
		if ack.Version != 4 {
			t.Fatalf("subscription floor %d, want 4", ack.Version)
		}
		var got []certifier.Refresh
		for len(got) < 4 {
			var batch refreshBatch
			if err := fc.recv(&batch); err != nil {
				t.Fatalf("backfill frame after %d refreshes: %v", len(got), err)
			}
			got = append(got, batch...)
		}
		for i, r := range got {
			if r.Version != uint64(i+1) {
				t.Fatalf("backfill %v out of version order", got)
			}
		}
		return got
	}

	for _, r := range backfill(nil) {
		if r.WS == nil {
			t.Fatalf("full backfill: version %d is a skip marker", r.Version)
		}
	}
	for _, r := range backfill([]int{1}) {
		if r.Version == 2 && r.WS == nil {
			t.Fatalf("partial backfill: version 2 is on the requested shard but arrived as a skip marker")
		}
		if r.Version != 2 && r.WS != nil {
			t.Fatalf("partial backfill: version %d is off-shard but carried a writeset", r.Version)
		}
	}
}

// TestSubscribeRefusesUnknownShard: a subscription naming a shard the
// certifier does not have is refused with nothing registered. The
// server answers with an ack that carries only its map — no version, no
// lease — which the replica logs the refusal by, and closes the
// connection, so the replica's gate never opens — whatever the
// certifier's shard count.
func TestSubscribeRefusesUnknownShard(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cert  *certifier.Certifier
		shard int
	}{
		{"one shard", certifier.New(), 3},
		{"four shards", newShardedCert(t), 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, err := ServeCertifier(tc.cert, "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			conn, err := net.Dial("tcp", srv.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			conn.SetDeadline(time.Now().Add(10 * time.Second))
			fc := newFrameConn(conn)
			if err := fc.send(&certHello{Kind: linkCertSub, ReplicaID: 1, Shards: []int{0, tc.shard}}); err != nil {
				t.Fatal(err)
			}
			var ack subAck
			if _, err := fc.recvHello(string(linkSubAck), &ack); err != nil {
				t.Fatalf("subscription to shard %d: %v, want an ack with the map", tc.shard, err)
			}
			if want := (subAck{Shards: tc.cert.ShardMap()}); !reflect.DeepEqual(ack, want) {
				t.Fatalf("refusal ack %+v, want %+v", ack, want)
			}
			var batch refreshBatch
			err = fc.recv(&batch)
			if ne, ok := err.(net.Error); err == nil || ok && ne.Timeout() {
				t.Fatalf("subscription to shard %d of %d: err = %v after the ack, want the connection closed", tc.shard, tc.cert.ShardMap().N(), err)
			}
			if ids := tc.cert.Replicas(); len(ids) != 0 {
				t.Fatalf("refused subscription registered replicas %v", ids)
			}
		})
	}
}

// FuzzRefreshCodec feeds arbitrary bytes to the refresh payload parser:
// it must never panic, and anything it accepts must round-trip through
// the encoder unchanged (the parse→encode→parse fixed point).
func FuzzRefreshCodec(f *testing.F) {
	seed, err := refreshBatch(codecBatch()).appendTo(nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	f.Add([]byte{0x00})
	f.Add([]byte{0x01, 0x01, 0x01, 0x00, 0x01, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		var batch refreshBatch
		if err := parsePayload(data, &batch); err != nil {
			return
		}
		enc, err := batch.appendTo(nil)
		if err != nil {
			t.Fatalf("accepted payload failed to re-encode: %v", err)
		}
		var again refreshBatch
		if err := parsePayload(enc, &again); err != nil {
			t.Fatalf("re-encoded payload failed to parse: %v", err)
		}
		// The fixed point is asserted at the byte level: encode(again)
		// must reproduce enc exactly. DeepEqual would be wrong here —
		// float rows can legally hold NaN, which the codec round-trips
		// bit-exactly but == (and so DeepEqual) reports as unequal.
		enc2, err := again.appendTo(nil)
		if err != nil {
			t.Fatalf("re-parsed payload failed to encode: %v", err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("round trip diverged:\n got %x (%+v)\nwant %x (%+v)", enc2, again, enc, batch)
		}
	})
}
