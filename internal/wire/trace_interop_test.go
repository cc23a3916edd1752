package wire

import (
	"bytes"
	"encoding/gob"
	"net"
	"testing"

	"sconrep/internal/core"
	"sconrep/internal/obs/dtrace"
)

// The untraced wire format: the same frames without the Trace
// extension, exactly as a peer built without tracing would encode
// and decode them. gob matches struct fields by name, skipping stream
// fields the receiver lacks and zero-filling receiver fields the
// stream lacks — which is what makes Trace an optional extension.

type legacyClientRequest struct {
	Seq     uint64
	Op      string
	Name    string
	Tables  []string
	Begin   bool
	TxnName string
	SQL     string
	Params  []any
}

type legacyReplicaRequest struct {
	Seq        uint64
	Op         string
	Begin      bool
	MinVersion uint64
	TxnID      uint64
	SQL        string
	Params     []any
	Eager      bool
}

// TestTraceFrameGobCompat proves both directions of the frame-header
// extension at the gob layer: a modern frame carrying a span context
// decodes cleanly on a legacy peer (field skipped), and a legacy frame
// decodes cleanly on a modern peer (context zero, i.e. untraced).
func TestTraceFrameGobCompat(t *testing.T) {
	sc := dtrace.SpanContext{}
	sc.Trace[0], sc.Trace[15] = 0xab, 0xcd
	sc.Span[0] = 0xef

	// Modern → legacy: the Trace field is skipped, everything else lands.
	var buf bytes.Buffer
	modern := clientRequest{Seq: 7, Op: "exec", Begin: true, TxnName: "tpcw.buyConfirm", Trace: sc}
	if err := gob.NewEncoder(&buf).Encode(&modern); err != nil {
		t.Fatal(err)
	}
	var old legacyClientRequest
	if err := gob.NewDecoder(&buf).Decode(&old); err != nil {
		t.Fatalf("legacy peer failed to decode a span-carrying frame: %v", err)
	}
	if old.Seq != 7 || old.Op != "exec" || !old.Begin || old.TxnName != "tpcw.buyConfirm" {
		t.Fatalf("legacy decode mangled fields: %+v", old)
	}

	// Legacy → modern: Trace zero-fills to the invalid context.
	buf.Reset()
	if err := gob.NewEncoder(&buf).Encode(&legacyReplicaRequest{Seq: 3, Begin: true, MinVersion: 9}); err != nil {
		t.Fatal(err)
	}
	var now replicaRequest
	if err := gob.NewDecoder(&buf).Decode(&now); err != nil {
		t.Fatalf("modern peer failed to decode a legacy frame: %v", err)
	}
	if now.Seq != 3 || !now.Begin || now.MinVersion != 9 {
		t.Fatalf("modern decode mangled fields: %+v", now)
	}
	if now.Trace.Valid() {
		t.Fatalf("legacy frame produced a valid span context: %+v", now.Trace)
	}
}

// TestLegacyClientRoundTrip runs a full header+exec/commit against a
// real traced deployment from a hand-rolled legacy client that never
// sends span-context frames — the old-peer interop the wire layer
// promises.
func TestLegacyClientRoundTrip(t *testing.T) {
	d := newDeployment(t, 2, core.Coarse)
	// Trace the server side so the test exercises the code paths that
	// would consume a context if one arrived.
	coll := dtrace.NewCollector(64)
	d.gateway.Balancer().EnableTracing(dtrace.New("gateway", coll))
	for _, rep := range d.replicas {
		rep.EnableTracing(dtrace.New("replica", dtrace.NewCollector(64)))
	}

	conn, err := net.Dial("tcp", d.gateway.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	enc := gob.NewEncoder(conn)
	dec := gob.NewDecoder(conn)
	if err := enc.Encode(clientHello{SessionID: "legacy"}); err != nil {
		t.Fatal(err)
	}
	call := func(req legacyClientRequest) clientResponse {
		t.Helper()
		if err := enc.Encode(&req); err != nil {
			t.Fatal(err)
		}
		var resp clientResponse
		if err := dec.Decode(&resp); err != nil {
			t.Fatal(err)
		}
		if resp.Seq != req.Seq {
			t.Fatalf("response out of sequence: got %d want %d", resp.Seq, req.Seq)
		}
		if resp.Err != "" {
			t.Fatalf("op %s failed: %s", req.Op, resp.Err)
		}
		return resp
	}

	call(legacyClientRequest{Seq: 1, Begin: true, Op: "exec", SQL: `UPDATE kv SET v = ? WHERE k = ?`, Params: []any{"legacy", int64(1)}})
	resp := call(legacyClientRequest{Seq: 2, Op: "commit"})
	if resp.Version == 0 || resp.ReadOnly {
		t.Fatalf("commit = %+v", resp)
	}

	// The gateway still minted its routing span; its parent is simply a
	// fresh root because the legacy client supplied no context.
	for _, sp := range coll.Recent(0) {
		if sp.Name == "lb.route" && sp.Parent != (dtrace.SpanID{}) {
			t.Fatalf("lb.route span for a legacy client has a parent: %+v", sp)
		}
	}
}
