package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"math"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"sconrep/internal/certifier"
	"sconrep/internal/core"
	"sconrep/internal/obs/dtrace"
	"sconrep/internal/replica"
	"sconrep/internal/shard"
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

// parse reads nothing: a bare hello is all prefix, which decodePayload
// checks and whose link byte it stores.
func (h *bareHello) parse(*writeset.Decoder) {}

// frameCases is one populated and one degenerate instance of every
// frame type, as (value, fresh zero value to decode into) pairs; their
// bytes are pinned in testdata/frames.golden. The degenerate ones pin
// what a reflective codec used to blur: nil apart from empty for every
// slice and map, a nil *sql.Result apart from an empty one, an empty
// writeset apart from the nil skip marker, a zero span context apart
// from a set one, and max uint64 everywhere a version travels.
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
	twoShards, err := shard.New(2, map[string]int{"b": 1, "a": 0})
	if err != nil {
		panic(err)
	}
	return []struct {
		name     string
		in, zero frame
	}{
		{"bareHello", ptr(bareHello(linkReplica)), new(bareHello)},
		{"clientHello", &clientHello{SessionID: "alice"}, &clientHello{}},
		{"clientHello/empty", &clientHello{}, &clientHello{}},
		{"certHello", &certHello{Kind: linkCertSub, ReplicaID: -1, VLocal: math.MaxUint64, Shards: []int{0, 3}}, &certHello{}},
		{"certHello/emptyShards", &certHello{Kind: linkCertReq, Shards: []int{}}, &certHello{}},
		{"subAck", &subAck{Version: math.MaxUint64, Lease: math.MaxInt64, Trimmed: math.MaxUint64}, &subAck{}},
		{"subAck/acks", &subAck{Version: 7, Acks: true, Lease: 2 * time.Second}, &subAck{}},
		{"subAck/zero", &subAck{}, &subAck{}},
		{"subAck/shards", &subAck{Version: 3, Lease: time.Second, Shards: twoShards}, &subAck{}},
		{"subAck/trimmed", &subAck{Shards: twoShards, Trimmed: 12}, &subAck{}},
		{"appliedAck", &appliedAck{Version: math.MaxUint64}, &appliedAck{}},
		{"appliedAck/zero", &appliedAck{}, &appliedAck{}},
		{"clientRequest", &clientRequest{Seq: math.MaxUint64, Op: opExec, Name: "n", Tables: []string{"a", ""},
			Begin: true, TxnName: "tpcw.buyConfirm", Trace: sc, SQL: "SELECT 1", Params: edgeValues()}, &clientRequest{}},
		{"clientRequest/zero", &clientRequest{}, &clientRequest{}},
		{"clientRequest/end", &clientRequest{Seq: 2, Op: opExec, Begin: true, HasEnd: true, End: clientEnd{Abort: true, HeldUs: 1<<63 - 1},
			SQL: "SELECT 1"}, &clientRequest{}},
		{"clientRequest/endOnly", &clientRequest{Seq: 2, HasEnd: true, End: clientEnd{HeldUs: 500_000}}, &clientRequest{}},
		{"clientRequest/empties", &clientRequest{Tables: []string{}, Params: []any{}}, &clientRequest{}},
		{"clientRequest/floor", &clientRequest{Seq: 3, Op: opExec, Begin: true, Floor: core.Floor{Version: 41},
			SQL: "SELECT 1"}, &clientRequest{}},
		{"clientRequest/tableFloors", &clientRequest{Seq: 3, Op: opExec, Begin: true, Tables: []string{"a"}, SQL: "SELECT 1",
			Floor: core.Floor{Version: math.MaxUint64, Tables: []string{"a", "b"}, Versions: []uint64{math.MaxUint64, 3}}},
			&clientRequest{}},
		{"clientResponse", &clientResponse{Seq: 9, Err: "boom", ErrCode: codeConflict, Result: result, Snapshot: math.MaxUint64,
			Version: math.MaxUint64, ReadOnly: true, WriteTables: []string{"kv"}, ReadTables: []string{}}, &clientResponse{}},
		{"clientResponse/zero", &clientResponse{}, &clientResponse{}},
		{"clientResponse/emptyResult", &clientResponse{Result: &sql.Result{Columns: []string{}, Rows: [][]any{}}}, &clientResponse{}},
		{"clientResponse/versions", &clientResponse{Seq: 9, Snapshot: 7, Version: 7, ReadOnly: true,
			ReadTables: []string{"a", "b"}, TableVersions: []uint64{math.MaxUint64, 0}}, &clientResponse{}},
		{"replicaRequest", &replicaRequest{Seq: 3, Op: opCommit, Begin: true, MinVersion: math.MaxUint64, Trace: sc,
			SQL: "UPDATE kv SET v = ? WHERE k = ?", Params: edgeValues(), Eager: true}, &replicaRequest{}},
		{"replicaRequest/txn", &replicaRequest{Seq: 3, Op: opExec, TxnID: math.MaxUint64, SQL: "SELECT 1"}, &replicaRequest{}},
		{"replicaRequest/zero", &replicaRequest{}, &replicaRequest{}},
		{"replicaRequest/ends", &replicaRequest{Seq: 2, Op: opStatus, Ends: []replicaEnd{
			{TxnID: 77}, {TxnID: math.MaxUint64, Abort: true, HeldUs: 1<<63 - 1}, {TxnID: 1<<56 + 3, HeldUs: 500_000}}}, &replicaRequest{}},
		{"replicaRequest/emptyEnds", &replicaRequest{Seq: 2, Op: opExec, TxnID: 77, Ends: []replicaEnd{}}, &replicaRequest{}},
		{"replicaResponse", &replicaResponse{Seq: 4, Err: "x", ErrCode: codeUnavailable, TxnID: 5, Snapshot: 6, Result: result,
			Commit: replica.CommitResult{Version: math.MaxUint64, ReadOnly: true, WrittenTables: []string{"b", "a"},
				Touched: []string{"a", "b", "c"}, TableVersions: []uint64{math.MaxUint64, 2, 0}},
			Version: 8, Active: 3, Crashed: true, Ready: true}, &replicaResponse{}},
		{"replicaResponse/zero", &replicaResponse{}, &replicaResponse{}},
		{"replicaResponse/status", &replicaResponse{Seq: 5, Version: 9, Active: 2, Ready: true,
			Served: []int{1}, Shards: twoShards}, &replicaResponse{}},
		{"replicaResponse/statusAll", &replicaResponse{Seq: 5, Ready: true, Shards: shard.Single()}, &replicaResponse{}},
		{"replicaResponse/empties", &replicaResponse{Commit: replica.CommitResult{WrittenTables: []string{},
			Touched: []string{}, TableVersions: []uint64{}}}, &replicaResponse{}},
		{"certRequest", &certRequest{Seq: 1, Op: opCertify, Origin: -1, TxnID: 2, Snapshot: 3, WS: ws, Trace: sc,
			ReplicaID: 4}, &certRequest{}},
		{"certRequest/zero", &certRequest{}, &certRequest{}},
		{"certRequest/emptyWS", &certRequest{Op: opCertify, WS: &writeset.WriteSet{}}, &certRequest{}},
		{"certResponse", &certResponse{Seq: 1, Err: "e", Decision: certifier.Decision{Commit: true, Version: 9},
			TableVers: map[string]uint64{"t": 1, "s": 2}}, &certResponse{}},
		{"certResponse/zero", &certResponse{}, &certResponse{}},
		{"certResponse/empties", &certResponse{TableVers: map[string]uint64{}}, &certResponse{}},
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
	case *bareHello, *clientHello, *certHello, *subAck:
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
	l, err := checkHello(d, "crqsa")
	if err != nil {
		return err
	}
	switch h := f.(type) {
	case *bareHello:
		*h = bareHello(l)
	case *certHello:
		h.Kind = l
	}
	f.parse(d)
	return d.Done()
}

// TestFrameRoundTrip: every frame type decodes to exactly what was
// encoded — DeepEqual, which tells nil from empty and compares maps as
// maps — and re-encodes to the same bytes, which is what pins -0
// (DeepEqual cannot tell it from 0). The bytes themselves must match
// testdata/frames.golden: a peer built from another revision reads
// them.
func TestFrameRoundTrip(t *testing.T) {
	cases := frameCases()
	lines := []string{fmt.Sprintf("codecVersion %d", codecVersion)}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			enc, err := tc.in.appendTo(nil)
			if err != nil {
				t.Fatal(err)
			}
			lines = append(lines, fmt.Sprintf("%s %x", tc.name, enc))
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
	if !t.Failed() && len(lines) == len(cases)+1 { // not when -run picked some cases
		checkGolden(t, "testdata/frames.golden", lines)
	}
}

// goldenHeader opens a golden file.
const goldenHeader = "# One \"name hex\" line per test case, under the version they were encoded with.\n" +
	"# The test prints a new file only for a new version."

// checkGolden compares a layout's encodings — lines[0] names the
// version they were written under, each later line is "name hex" —
// with the golden file at path. Under an unchanged version any
// difference is a layout change that needs the version bumped, and the
// new bytes are not printed: there is nothing to commit until the bump.
// A golden of another version is stale, and the test prints the file
// to commit in its place.
func checkGolden(t *testing.T, path string, lines []string) {
	t.Helper()
	text, _ := os.ReadFile(path)
	var old []string
	for _, l := range strings.Split(string(text), "\n") {
		if l = strings.TrimSpace(l); l != "" && !strings.HasPrefix(l, "#") {
			old = append(old, l)
		}
	}
	if slices.Equal(old, lines) {
		return
	}
	if len(old) > 0 && old[0] == lines[0] {
		var changed []string
		for _, l := range lines[1:] {
			if !slices.Contains(old, l) {
				changed = append(changed, strings.Fields(l)[0])
			}
		}
		for _, l := range old[1:] {
			if !slices.Contains(lines, l) && !slices.Contains(changed, strings.Fields(l)[0]) {
				changed = append(changed, strings.Fields(l)[0])
			}
		}
		t.Fatalf("%s: layout changed: bump codecVersion (%s differ from the golden written under %s)",
			path, strings.Join(changed, ", "), lines[0])
	}
	t.Fatalf("%s is not the golden of %s; after review, commit this as %s:\n%s\n%s\n",
		path, lines[0], path, goldenHeader, strings.Join(lines, "\n"))
}

// TestFrameCasesComplete: every type in the package with an appendTo
// method — every frame this build can send — has a frameCases entry,
// so its bytes are in the golden.
func TestFrameCasesComplete(t *testing.T) {
	covered := map[string]bool{}
	for _, tc := range frameCases() {
		covered[reflect.TypeOf(tc.in).Elem().Name()] = true
	}
	files, _ := filepath.Glob("*.go")
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv == nil || fn.Name.Name != "appendTo" {
				continue
			}
			recv := fn.Recv.List[0].Type
			if star, ok := recv.(*ast.StarExpr); ok {
				recv = star.X
			}
			if typ := recv.(*ast.Ident).Name; !covered[typ] {
				t.Errorf("%s: %s has an appendTo method but no frameCases entry", fset.Position(fn.Pos()), typ)
			}
		}
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
	// replicaFlags is a replica request with its flags byte replaced.
	replicaFlags := func(flags byte) []byte {
		p, _ := (&replicaRequest{Seq: 1, Op: opCommit, TxnID: 7}).appendTo(nil)
		p[2] = flags
		return p
	}
	// withEnd is an ends-only client request whose end reads as the
	// given bytes.
	withEnd := func(end ...byte) []byte {
		p, _ := (&clientRequest{Seq: 1, HasEnd: true}).appendTo(nil)
		return append(append(p[:3:3], end...), p[4:]...)
	}
	if err := parsePayload(withEnd(0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01), &clientRequest{}); err != nil {
		t.Fatalf("client end of 2^64-1: %v", err)
	}
	if err := parsePayload(replicaFlags(flagBegin|flagEager), &replicaRequest{}); err != nil {
		t.Fatalf("eager replica request: %v", err)
	}
	bad := map[string]struct {
		p []byte
		f inFrame
	}{
		"unknown op byte":    {mutate(1, byte(numOps)), &clientRequest{}},
		"unknown flag bits":  {mutate(2, 0x80), &clientRequest{}},
		"client flag eager":  {mutate(2, flagEnd|flagEager), &clientRequest{}},
		"client end > 64 b":  {withEnd(0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02), &clientRequest{}},
		"client end missing": {mutate(2, flagEnd), &clientRequest{}},
		"replica flag bits":  {replicaFlags(flagEager | flagReadOnly), &replicaRequest{}},
		"ends count > len":   {[]byte{1, byte(opStatus), flagEnds, 0, 0x7f, 1, 0, 0, 0}, &replicaRequest{}},
		"tables count > len": {mutate(4, 0x7f), &clientRequest{}},
		"unknown error code": {[]byte{1, 0, byte(numErrCodes), 0, 0, 0, 0, 0}, &clientResponse{}},
		"huge varint count":  {[]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0x02}, new(refreshBatch)},
		"unknown value tag":  {[]byte{1, 0, 0, 0, 0, 2, 9, 2}, &replicaRequest{}},
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
	hello[len(helloMagic)] = codecVersion + 1
	_, err := checkHello(writeset.NewDecoder(hello), "c")
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("version %d", codecVersion+1)) ||
		!strings.Contains(err.Error(), fmt.Sprintf("version %d", codecVersion)) {
		t.Fatalf("version mismatch error = %v, want both versions named", err)
	}
}

// TestRetainedStringsAreCopies: what a server keeps past the request —
// a registered transaction's name and tables, the statement cache key
// and its parse, string parameters bound for a row, the table names a
// commit's versions enter the balancer's tracker under — is its own
// copy, and so is what a client keeps of a response in its floor. Each is decoded from a buffer the
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
	d.gateway.dispatch(&gatewaySession{id: "s"}, &reg, &clientResponse{})
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
	p = decode(&replicaResponse{Commit: replica.CommitResult{Version: 9, WrittenTables: []string{"kv"},
		Touched: []string{"kv"}, TableVersions: []uint64{9}}}, &commit)
	d.gateway.Balancer().ObserveCommit("s", commit.Commit)
	scribble(p)
	if v := d.gateway.Balancer().Tracker().TableVersion("kv"); v != 9 {
		t.Errorf("Vt(kv) after the frame was overwritten = %d, want 9", v)
	}

	// The client keeps the table names of its floor past the response.
	var answer clientResponse
	p = decode(&clientResponse{Version: 9, ReadTables: []string{"kv"}, TableVersions: []uint64{9}}, &answer)
	var floor core.Floor
	floor.Observe(answer.Version, answer.ReadTables, answer.TableVersions)
	scribble(p)
	if v := d.gateway.Balancer().Tracker().MinStartVersion(core.Fine, []string{"kv"}, floor); v != 9 {
		t.Errorf("session floor on kv after the frame was overwritten = %d, want 9", v)
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
		func() frame { return new(bareHello) },
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
