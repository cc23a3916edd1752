package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"sconrep/internal/certifier"
	"sconrep/internal/core"
	"sconrep/internal/obs/dtrace"
	"sconrep/internal/replica"
	"sconrep/internal/sql"
	"sconrep/internal/writeset"
)

// frame is a message that travels in both directions of the test.
type frame interface {
	outFrame
	inFrame
}

func testSpan() dtrace.SpanContext {
	var sc dtrace.SpanContext
	sc.Trace[0], sc.Trace[15] = 0xab, 0xcd
	sc.Span[3] = 0xef
	return sc
}

// edgeValues are the row values an encoding must not blur: the int64
// extremes, -0 and infinity, empty strings, nil among values. NaN is
// tested apart (TestFrameEdgeValuesSurvive): no two NaNs are DeepEqual.
func edgeValues() []any {
	return []any{nil, int64(math.MinInt64), int64(math.MaxInt64), int64(0), math.Copysign(0, -1),
		math.Inf(1), "", "héllo\x00", true, false}
}

// frameCases is one populated and one degenerate instance of every
// frame type, as (value, fresh zero value to decode into) pairs. The
// degenerate ones pin what a reflective codec used to blur: nil apart
// from empty for every slice and map, a nil *sql.Result apart from an
// empty one, an empty writeset apart from the nil skip marker, a zero
// span context apart from a set one, and max uint64 everywhere a
// version travels.
func frameCases() []struct {
	name     string
	in, zero frame
} {
	sc := testSpan()
	ws := &writeset.WriteSet{Trace: &sc, Items: []writeset.Item{
		{Table: "kv", Key: "k1", Op: writeset.OpUpdate, Row: edgeValues()},
		{Table: "kv", Key: "", Op: writeset.OpInsert, Row: []any{}},
		{Table: "orders", Key: "o9", Op: writeset.OpDelete},
	}}
	result := &sql.Result{Columns: []string{"k", "v"}, Rows: [][]any{edgeValues(), {}, nil}, Affected: -1}
	return []struct {
		name     string
		in, zero frame
	}{
		{"clientHello", &clientHello{SessionID: "alice"}, &clientHello{}},
		{"clientHello/empty", &clientHello{}, &clientHello{}},
		{"certHello", &certHello{Kind: linkCertSub, ReplicaID: -1, VLocal: math.MaxUint64, Shards: []int{0, 3}}, &certHello{}},
		{"certHello/emptyShards", &certHello{Kind: linkCertReq, Shards: []int{}}, &certHello{}},
		{"subAck", &subAck{Version: math.MaxUint64, Lease: math.MaxInt64}, &subAck{}},
		{"subAck/acks", &subAck{Version: 7, Acks: true, Lease: 2 * time.Second}, &subAck{}},
		{"subAck/zero", &subAck{}, &subAck{}},
		{"appliedAck", &appliedAck{Version: math.MaxUint64}, &appliedAck{}},
		{"appliedAck/zero", &appliedAck{}, &appliedAck{}},
		{"clientRequest", &clientRequest{Seq: math.MaxUint64, Op: opExec, Name: "n", Tables: []string{"a", ""},
			Begin: true, TxnName: "tpcw.buyConfirm", Trace: sc, SQL: "SELECT 1", Params: edgeValues()}, &clientRequest{}},
		{"clientRequest/zero", &clientRequest{}, &clientRequest{}},
		{"clientRequest/oneWay", &clientRequest{Seq: 2, Op: opCommit, OneWay: true}, &clientRequest{}},
		{"clientRequest/empties", &clientRequest{Tables: []string{}, Params: []any{}}, &clientRequest{}},
		{"clientResponse", &clientResponse{Seq: 9, Err: "boom", ErrCode: codeConflict, Result: result, Snapshot: math.MaxUint64,
			Version: math.MaxUint64, ReadOnly: true, WriteTables: []string{"kv"}, ReadTables: []string{}}, &clientResponse{}},
		{"clientResponse/zero", &clientResponse{}, &clientResponse{}},
		{"clientResponse/emptyResult", &clientResponse{Result: &sql.Result{Columns: []string{}, Rows: [][]any{}}}, &clientResponse{}},
		{"replicaRequest", &replicaRequest{Seq: 3, Op: opCommit, Begin: true, MinVersion: math.MaxUint64, Trace: sc,
			TxnID: 77, SQL: "UPDATE kv SET v = ? WHERE k = ?", Params: edgeValues(), Eager: true}, &replicaRequest{}},
		{"replicaRequest/zero", &replicaRequest{}, &replicaRequest{}},
		{"replicaRequest/oneWay", &replicaRequest{Seq: 2, Op: opAbort, TxnID: 77, OneWay: true}, &replicaRequest{}},
		{"replicaResponse", &replicaResponse{Seq: 4, Err: "x", ErrCode: codeUnavailable, TxnID: 5, Snapshot: 6, Result: result,
			Commit: replica.CommitResult{Version: math.MaxUint64, ReadOnly: true, WrittenTables: []string{"b", "a"},
				TableVersions: map[string]uint64{"b": 2, "a": math.MaxUint64, "c": 0}},
			Touched: []string{"a", "b"}, Version: 8, Active: 3, Crashed: true, Ready: true}, &replicaResponse{}},
		{"replicaResponse/zero", &replicaResponse{}, &replicaResponse{}},
		{"replicaResponse/empties", &replicaResponse{Commit: replica.CommitResult{WrittenTables: []string{},
			TableVersions: map[string]uint64{}}, Touched: []string{}}, &replicaResponse{}},
		{"certRequest", &certRequest{Seq: 1, Op: opCertify, Origin: -1, TxnID: 2, Snapshot: 3, WS: ws, Trace: sc,
			ReplicaID: 4, After: math.MaxUint64, Shards: []int{1}}, &certRequest{}},
		{"certRequest/zero", &certRequest{}, &certRequest{}},
		{"certRequest/emptyWS", &certRequest{Op: opCertify, WS: &writeset.WriteSet{}}, &certRequest{}},
		{"certResponse", &certResponse{Seq: 1, Err: "e", Decision: certifier.Decision{Commit: true, Version: 9},
			History: codecBatch(), TableVers: map[string]uint64{"t": 1, "s": 2}}, &certResponse{}},
		{"certResponse/zero", &certResponse{}, &certResponse{}},
		{"certResponse/empties", &certResponse{History: []certifier.Refresh{}, TableVers: map[string]uint64{}}, &certResponse{}},
		{"refreshBatch", ptr(refreshBatch(codecBatch())), new(refreshBatch)},
		{"refreshBatch/empty", ptr(refreshBatch{}), new(refreshBatch)},
	}
}

func ptr[T any](v T) *T { return &v }

// helloLen is the length of the prefix every hello (and the subAck)
// starts with; the payload parsers of those types start after it.
const helloLen = len(helloMagic) + 2

func isHello(f frame) bool {
	switch f.(type) {
	case *clientHello, *certHello, *subAck:
		return true
	}
	return false
}

// decodePayload parses an encoded payload into f, through the hello
// prefix where the type has one.
func decodePayload(p []byte, f frame) error {
	if !isHello(f) {
		return parsePayload(p, f)
	}
	d := writeset.NewDecoder(p)
	l, err := checkHello(d, "cqsa")
	if err != nil {
		return err
	}
	if h, ok := f.(*certHello); ok {
		h.Kind = l
	}
	f.parse(d)
	return d.Done()
}

// TestFrameRoundTrip: every frame type decodes to exactly what was
// encoded — DeepEqual, which tells nil from empty and compares maps as
// maps — and re-encodes to the same bytes, which is what pins -0
// (DeepEqual cannot tell it from 0).
func TestFrameRoundTrip(t *testing.T) {
	for _, tc := range frameCases() {
		t.Run(tc.name, func(t *testing.T) {
			enc, err := tc.in.appendTo(nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := decodePayload(enc, tc.zero); err != nil {
				t.Fatalf("decode: %v", err)
			}
			again, err := tc.zero.appendTo(nil)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(enc, again) {
				t.Fatalf("re-encoding diverged:\n got %x\nwant %x", again, enc)
			}
			if !reflect.DeepEqual(tc.zero, tc.in) {
				t.Fatalf("round trip diverged:\n got %+v\nwant %+v", tc.zero, tc.in)
			}
		})
	}
}

// TestFrameEdgeValuesSurvive checks row values one by one, floats by
// bit pattern: NaN and -0 arrive as sent.
func TestFrameEdgeValuesSurvive(t *testing.T) {
	in := &replicaRequest{Params: append(edgeValues(), math.NaN(), math.Float64frombits(0x7ff8000000000001))}
	enc, _ := in.appendTo(nil)
	var out replicaRequest
	if err := parsePayload(enc, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Params) != len(in.Params) {
		t.Fatalf("params = %v", out.Params)
	}
	for i, want := range in.Params {
		got := out.Params[i]
		if wf, ok := want.(float64); ok {
			gf, ok := got.(float64)
			if !ok || math.Float64bits(gf) != math.Float64bits(wf) {
				t.Errorf("param %d = %v (%T), want bits of %v", i, got, got, wf)
			}
			continue
		}
		if got != want {
			t.Errorf("param %d = %#v, want %#v", i, got, want)
		}
	}
}

// TestFrameTruncatedRejected: no proper prefix of any frame's payload
// decodes, and neither does the payload with a byte appended.
func TestFrameTruncatedRejected(t *testing.T) {
	for _, tc := range frameCases() {
		enc, err := tc.in.appendTo(nil)
		if err != nil {
			t.Fatal(err)
		}
		for n := 0; n < len(enc); n++ {
			if err := decodePayload(enc[:n:n], tc.zero); err == nil {
				t.Fatalf("%s: truncation at %d/%d bytes decoded cleanly", tc.name, n, len(enc))
			}
		}
		if err := decodePayload(append(enc[:len(enc):len(enc)], 0), tc.zero); err == nil {
			t.Fatalf("%s: trailing byte accepted", tc.name)
		}
	}
}

// TestFrameHostileBytesRejected: unknown op, flag and error-code bytes,
// and counts that cannot fit, fail the parse before anything is
// allocated for them.
func TestFrameHostileBytesRejected(t *testing.T) {
	valid, _ := (&clientRequest{Seq: 1, Op: opExec, SQL: "x"}).appendTo(nil)
	mutate := func(i int, b byte) []byte {
		p := append([]byte(nil), valid...)
		p[i] = b
		return p
	}
	// oneWay is a one-way replica request with its flags byte replaced.
	oneWay := func(flags byte) []byte {
		p, _ := (&replicaRequest{Seq: 1, Op: opCommit, TxnID: 7, OneWay: true}).appendTo(nil)
		p[2] = flags
		return p
	}
	if err := parsePayload(oneWay(flagOneWay|flagEager), &replicaRequest{}); err != nil {
		t.Fatalf("one-way eager replica request: %v", err)
	}
	bad := map[string]struct {
		p []byte
		f inFrame
	}{
		"unknown op byte":    {mutate(1, byte(numOps)), &clientRequest{}},
		"unknown flag bits":  {mutate(2, 0x80), &clientRequest{}},
		"client flag eager":  {mutate(2, flagOneWay|flagEager), &clientRequest{}},
		"replica flag bits":  {oneWay(flagOneWay | flagReadOnly), &replicaRequest{}},
		"tables count > len": {mutate(4, 0x7f), &clientRequest{}},
		"unknown error code": {[]byte{1, 0, byte(numErrCodes), 0, 0, 0, 0, 0}, &clientResponse{}},
		"huge varint count":  {[]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0x02}, new(refreshBatch)},
		"unknown value tag":  {[]byte{1, 0, 0, 0, 0, 2, 9}, &replicaRequest{}},
		"subAck flag bits":   {[]byte{flagAcks | 0x02, 7, 0}, &subAck{}},
		"ack varint > 64 b":  {[]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02}, &appliedAck{}},
	}
	for name, tc := range bad {
		if err := parsePayload(tc.p, tc.f); err == nil {
			t.Errorf("%s: decoded cleanly", name)
		}
	}
}

// TestReadFrameLengthBound: a length prefix beyond the frame limit is
// refused before any allocation, and a short payload is an error.
func TestReadFrameLengthBound(t *testing.T) {
	read := func(b []byte) error {
		client, server := net.Pipe()
		defer server.Close()
		go func() { client.Write(b); client.Close() }()
		_, err := newFrameConn(server).readFrame()
		return err
	}
	var huge [4]byte
	binary.LittleEndian.PutUint32(huge[:], maxFrame+1)
	if err := read(huge[:]); err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("oversize length prefix: %v", err)
	}
	if err := read([]byte{8, 0, 0, 0, 1, 2, 3}); err != io.ErrUnexpectedEOF {
		t.Fatalf("short payload: %v", err)
	}
}

// TestHelloRejected: on every link a first frame with the wrong magic,
// a newer or the previous protocol version, or another link's byte gets
// the connection closed without a response, and the error names both
// versions. Each hello is otherwise the link's own, so a server that
// let it pass would answer — the subscription link with its subAck at
// once, the others the request that follows.
func TestHelloRejected(t *testing.T) {
	d := newDeployment(t, 1, core.Coarse)
	links := []struct {
		name, addr string
		hello      outFrame
	}{
		{"client", d.gateway.Addr(), &clientHello{SessionID: "s"}},
		{"replica", d.repSrvs[0].Addr(), bareHello(linkReplica)},
		{"certifier", d.certSrv.Addr(), &certHello{Kind: linkCertReq}},
		{"subscription", d.certSrv.Addr(), &certHello{Kind: linkCertSub, ReplicaID: 9}},
	}
	for _, lk := range links {
		good, _ := encodeFrame(nil, lk.hello)
		for name, mutate := range map[string]func([]byte){
			"magic":            func(b []byte) { b[4] = 'X' },
			"version":          func(b []byte) { b[4+len(helloMagic)] = codecVersion + 1 },
			"previous version": func(b []byte) { b[4+len(helloMagic)] = codecVersion - 1 },
			"link":             func(b []byte) { b[4+len(helloMagic)+1] = 'z' },
		} {
			hello := append([]byte(nil), good...)
			mutate(hello)
			conn, err := net.Dial("tcp", lk.addr)
			if err != nil {
				t.Fatal(err)
			}
			req, _ := encodeFrame(nil, &replicaRequest{Seq: 1, Op: opStatus})
			conn.Write(append(hello, req...))
			conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			if n, err := conn.Read(make([]byte, 64)); n != 0 || err == nil {
				t.Errorf("%s link, bad %s: read %d bytes, err %v; want the connection closed", lk.name, name, n, err)
			}
			conn.Close()
		}
	}

	hello := appendHello(nil, linkClient)
	hello[len(helloMagic)] = 9
	_, err := checkHello(writeset.NewDecoder(hello), "c")
	if err == nil || !strings.Contains(err.Error(), "version 9") || !strings.Contains(err.Error(), fmt.Sprintf("version %d", codecVersion)) {
		t.Fatalf("version mismatch error = %v, want both versions named", err)
	}
}

// TestRetainedStringsAreCopies: what a server keeps past the request —
// a registered transaction's name and tables, the statement cache key
// and its parse, string parameters bound for a row, the keys of a
// version map — is its own copy. Each is decoded from a buffer the
// test owns and then overwrites; a retained alias would change with it.
func TestRetainedStringsAreCopies(t *testing.T) {
	d := newDeployment(t, 1, core.Fine)
	decode := func(in outFrame, out inFrame) []byte {
		t.Helper()
		p, err := in.appendTo(nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := parsePayload(p, out); err != nil {
			t.Fatal(err)
		}
		return p
	}
	scribble := func(p []byte) {
		for i := range p {
			p[i] = 'X'
		}
	}

	var reg clientRequest
	p := decode(&clientRequest{Op: opRegister, Name: "alias.txn", Tables: []string{"kv"}}, &reg)
	d.gateway.dispatch(&gatewaySession{id: "s"}, &reg)
	scribble(p)
	if ts, ok := d.gateway.Balancer().Registry().Lookup("alias.txn"); !ok || len(ts) != 1 || ts[0] != "kv" {
		t.Errorf("registered table-set = %v, %v", ts, ok)
	}

	const stmt = `SELECT v FROM kv WHERE k = ?`
	var exec replicaRequest
	p = decode(&replicaRequest{Op: opExec, SQL: stmt, Params: []any{"param", int64(1)}}, &exec)
	prep, err := d.repSrvs[0].prepared(exec.SQL)
	if err != nil {
		t.Fatal(err)
	}
	params := ownStrings(exec.Params)
	scribble(p)
	if again, _ := d.repSrvs[0].prepared(stmt); again != prep {
		t.Error("statement cache key changed with the frame it arrived in")
	}
	if params[0] != "param" {
		t.Errorf("string parameter = %q", params[0])
	}

	var commit replicaResponse
	p = decode(&replicaResponse{Commit: replica.CommitResult{TableVersions: map[string]uint64{"kv": 7}}}, &commit)
	scribble(p)
	if v, ok := commit.Commit.TableVersions["kv"]; !ok || v != 7 {
		t.Errorf("decoded version map = %v", commit.Commit.TableVersions)
	}
}

// FuzzFrameCodec feeds arbitrary bytes to every frame parser, selected
// by the first byte: none may panic, and anything one accepts must
// re-encode to bytes that parse and re-encode to themselves (the
// parse → encode → parse fixed point, at the byte level because rows
// can hold NaN).
func FuzzFrameCodec(f *testing.F) {
	kinds := []func() frame{
		func() frame { return &clientHello{} },
		func() frame { return &certHello{} },
		func() frame { return &subAck{} },
		func() frame { return &appliedAck{} },
		func() frame { return &clientRequest{} },
		func() frame { return &clientResponse{} },
		func() frame { return &replicaRequest{} },
		func() frame { return &replicaResponse{} },
		func() frame { return &certRequest{} },
		func() frame { return &certResponse{} },
		func() frame { return new(refreshBatch) },
	}
	kindOf := func(v frame) byte {
		for i, mk := range kinds {
			if reflect.TypeOf(mk()) == reflect.TypeOf(v) {
				return byte(i)
			}
		}
		f.Fatalf("no kind for %T", v)
		return 0
	}
	for _, tc := range frameCases() {
		enc, err := tc.in.appendTo(nil)
		if err != nil {
			f.Fatal(err)
		}
		if isHello(tc.in) {
			enc = enc[helloLen:]
		}
		f.Add(append([]byte{kindOf(tc.in)}, enc...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		mk := kinds[int(data[0])%len(kinds)]
		first := mk()
		if err := parsePayload(data[1:], first); err != nil {
			return
		}
		encode := func(v frame) []byte {
			enc, err := v.appendTo(nil)
			if err != nil {
				t.Fatalf("accepted payload failed to re-encode: %v", err)
			}
			if isHello(v) {
				enc = enc[helloLen:]
			}
			return enc
		}
		enc := encode(first)
		second := mk()
		if err := parsePayload(enc, second); err != nil {
			t.Fatalf("re-encoded payload failed to parse: %v", err)
		}
		if enc2 := encode(second); !bytes.Equal(enc, enc2) {
			t.Fatalf("round trip diverged:\n got %x (%+v)\nwant %x (%+v)", enc2, second, enc, first)
		}
	})
}
