package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"slices"
	"strings"

	"sconrep/internal/obs/dtrace"
	"sconrep/internal/shard"
	"sconrep/internal/sql"
	"sconrep/internal/writeset"
)

// Frame codec. Every message on every link — hellos, request and
// response envelopes, refresh batches, apply acks — is one frame:
//
//	u32 payload length (little-endian, at most maxFrame)
//	payload: the message's fields in declaration order, positional
//
// Integers are varints, strings are uvarint-length-prefixed, slices
// and maps lead with writeset.AppendLen (nil and empty stay distinct),
// booleans and optional parts share one flags byte per message, and
// writesets and row values use internal/writeset's layout. The layout
// of each message is its appendTo/parse pair, next to its struct.
//
// A positional codec has no field skipping: both ends must agree on
// every layout. The whole compatibility story is the hello — each
// connection's first frame starts with helloMagic, the codecVersion
// byte and a link byte, and a peer that reads another version closes
// the connection with an error naming both. TestFrameRoundTrip compares
// the bytes of one populated and one degenerate value of every frame
// type with testdata/frames.golden, which records the codecVersion it
// was written under: a layout change under an unchanged codecVersion
// fails `go test`.
//
// A sender assembles header and payload in its connection's buffer and
// hands them to the net.Conn in one Write — the fault injector and the
// benchmark's counting dialer both treat a Write as a message. A
// receiver reads through one bufio.Reader per connection into a fresh
// exact-size buffer per frame, and decoded strings alias that buffer:
// it is never reused, and code that keeps a decoded string past the
// request clones it where it is retained. Everything else a receiver
// decodes into is its connection's to reuse: one writeset.Decoder per
// connection, and on the request links one request and one response
// value per connection (per session at the gateway), whose slices the
// next frame of the same kind overwrites.

// codecVersion is the protocol version carried in every hello. Bump it
// with any change to a frame layout; TestFrameRoundTrip then prints the
// testdata/frames.golden to commit.
const codecVersion = 11

// helloMagic opens every connection's first frame.
const helloMagic = "SCRP"

// maxFrame bounds one frame (64 MiB). A length prefix beyond it means
// a corrupt or hostile stream; the connection is torn down rather than
// the allocation attempted.
const maxFrame = 64 << 20

// maxRetainedBuf caps the send buffer a connection keeps between
// frames, so one large refresh batch does not pin its size for the
// life of its connection.
const maxRetainedBuf = 1 << 20

// errEncode marks a send that failed before any byte was written: the
// message itself cannot be encoded, so no other connection will do
// better.
var errEncode = errors.New("wire: encode")

// link names the protocol a hello opens.
type link byte

const (
	linkClient  link = 'c' // application → gateway
	linkReplica link = 'r' // gateway → replica
	linkCertReq link = 'q' // replica → certifier, request/response
	linkCertSub link = 's' // replica → certifier, refresh subscription
	linkSubAck  link = 'a' // certifier's answer to a subscription hello
)

// op is a request's operation on any of the three links.
type op uint8

const (
	opNone op = iota // a request that carries only the begin header
	opExec
	opCommit
	opAbort
	opRegister
	opStatus
	opCertify
	opTableVers
	opUnsubscribe
	numOps
)

var opNames = [numOps]string{"", "exec", "commit", "abort", "register", "status",
	"certify", "tablevers", "unsubscribe"}

// String is the operation's name in metrics labels and errors.
func (o op) String() string {
	if o < numOps {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// readOp reads an operation byte, rejecting values no build defines.
func readOp(d *writeset.Decoder) op {
	o := op(d.Byte())
	if o >= numOps {
		d.Fail()
	}
	return o
}

// outFrame is a message that can be sent; inFrame one that can be
// received. parse reads the fields appendTo wrote, in the same order.
type outFrame interface {
	appendTo(buf []byte) ([]byte, error)
}

type inFrame interface {
	parse(d *writeset.Decoder)
}

// encodeFrame appends f as one frame (header and payload) to buf.
func encodeFrame(buf []byte, f outFrame) ([]byte, error) {
	start := len(buf)
	buf, err := f.appendTo(append(buf, 0, 0, 0, 0))
	if err != nil {
		return nil, err
	}
	n := len(buf) - start - 4
	if n > maxFrame {
		return nil, fmt.Errorf("wire: frame of %d bytes exceeds limit", n)
	}
	binary.LittleEndian.PutUint32(buf[start:], uint32(n))
	return buf, nil
}

// parsePayload decodes one frame payload into f; trailing bytes are an
// error. Strings decoded into f alias p.
func parsePayload(p []byte, f inFrame) error {
	var d writeset.Decoder
	return parseWith(&d, p, f)
}

// parseWith is parsePayload through the caller's decoder.
func parseWith(d *writeset.Decoder, p []byte, f inFrame) error {
	d.Reset(p)
	f.parse(d)
	return d.Done()
}

// frameConn frames one connection. It is used by one goroutine at a
// time per direction.
type frameConn struct {
	c    net.Conn
	br   *bufio.Reader
	wbuf []byte
	// dec decodes every frame recv reads.
	dec writeset.Decoder
}

func newFrameConn(c net.Conn) *frameConn {
	return &frameConn{c: c, br: bufio.NewReader(c)}
}

// send writes f as one frame in one Write.
func (fc *frameConn) send(f outFrame) error {
	buf, err := encodeFrame(fc.wbuf[:0], f)
	if err != nil {
		return fmt.Errorf("%w: %w", errEncode, err)
	}
	if cap(buf) <= maxRetainedBuf {
		fc.wbuf = buf
	}
	_, err = fc.c.Write(buf)
	return err
}

// readFrame reads one frame's payload into a fresh buffer.
func (fc *frameConn) readFrame() ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(fc.br, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > maxFrame {
		return nil, fmt.Errorf("wire: frame length %d exceeds limit", n)
	}
	p := make([]byte, n)
	if _, err := io.ReadFull(fc.br, p); err != nil {
		return nil, err
	}
	return p, nil
}

// recv reads one frame into f.
func (fc *frameConn) recv(f inFrame) error {
	p, err := fc.readFrame()
	if err != nil {
		return err
	}
	return parseWith(&fc.dec, p, f)
}

// appendHello appends the prefix every hello starts with.
func appendHello(buf []byte, l link) []byte {
	return append(append(buf, helloMagic...), codecVersion, byte(l))
}

// bareHello is a hello with nothing after the prefix (the replica
// link: the gateway has nothing to say about itself).
type bareHello link

func (h bareHello) appendTo(buf []byte) ([]byte, error) { return appendHello(buf, link(h)), nil }

// checkHello reads a hello's prefix from d: the magic, a version byte
// equal to codecVersion, and a link byte in accept.
func checkHello(d *writeset.Decoder, accept string) (link, error) {
	magic := d.Bytes(len(helloMagic))
	version, l := d.Byte(), d.Byte()
	switch {
	case d.Failed() || string(magic) != helloMagic:
		return 0, fmt.Errorf("wire: not a sconrep hello (magic %q, want %q)", magic, helloMagic)
	case version != codecVersion:
		return 0, fmt.Errorf("wire: protocol version mismatch: peer speaks version %d, this build speaks version %d", version, codecVersion)
	case strings.IndexByte(accept, l) < 0:
		return 0, fmt.Errorf("wire: hello for link %q, this end accepts %q", l, accept)
	}
	return link(l), nil
}

// recvHello reads a connection's first frame: the prefix is checked
// against accept, the rest parsed into f (nil when nothing follows).
func (fc *frameConn) recvHello(accept string, f inFrame) (link, error) {
	p, err := fc.readFrame()
	if err != nil {
		return 0, err
	}
	d := &fc.dec
	d.Reset(p)
	l, err := checkHello(d, accept)
	if err != nil {
		return 0, err
	}
	if f != nil {
		f.parse(d)
	}
	return l, d.Done()
}

// Shared field shapes.

// Message flag bits. Each message uses the subset its struct has, and
// flags that never meet in one message may share a bit.
const (
	flagAcks     = 1 << 0 // subAck only
	flagBegin    = 1 << 0
	flagTrace    = 1 << 1 // a 24-byte span context follows the flags
	flagEager    = 1 << 2
	flagEnd      = 1 << 3 // client requests only: the previous transaction's end is present
	flagEnds     = 1 << 3 // replica requests only: held ends are present
	flagResult   = 1 << 3 // a sql.Result is present
	flagReadOnly = 1 << 4
	flagCrashed  = 1 << 5
	flagReady    = 1 << 6
	flagCommit   = 1 << 7
	flagVersions = 1 << 7 // replica and client responses only: table versions aligned with the touched tables follow them
	flagShards   = 1 << 0 // replica status responses only: served shards and the shard map follow
)

func flagIf(cond bool, bit byte) byte {
	if cond {
		return bit
	}
	return 0
}

// readFlags reads a flags byte, rejecting bits outside allowed.
func readFlags(d *writeset.Decoder, allowed byte) byte {
	f := d.Byte()
	if f&^allowed != 0 {
		d.Fail()
	}
	return f
}

func appendStrings(buf []byte, ss []string) []byte {
	buf = writeset.AppendLen(buf, len(ss), ss == nil)
	for _, s := range ss {
		buf = writeset.AppendString(buf, s)
	}
	return buf
}

// readSlice reads an AppendLen-headed slice, one element per read call;
// nil stays nil.
func readSlice[T any](d *writeset.Decoder, read func(*writeset.Decoder) T) []T {
	return readSliceInto(d, nil, read)
}

// readSliceInto is readSlice into dst's array when it has room, so a
// value decoded frame after frame reuses its slices.
func readSliceInto[T any](d *writeset.Decoder, dst []T, read func(*writeset.Decoder) T) []T {
	n, isNil := d.Len()
	if isNil || d.Failed() {
		return nil
	}
	if dst == nil || cap(dst) < n {
		dst = make([]T, n)
	}
	dst = dst[:n]
	for i := 0; i < n && !d.Failed(); i++ {
		dst[i] = read(d)
	}
	return dst
}

func readStrings(d *writeset.Decoder) []string { return readSlice(d, (*writeset.Decoder).Str) }

// appendAligned appends versions that ride aligned with a string slice
// already written: len(vs) values and no length, which must be the
// slice's.
func appendAligned(buf []byte, vs []uint64, names []string) ([]byte, error) {
	if len(vs) != len(names) {
		return nil, fmt.Errorf("wire: %d versions for %d tables", len(vs), len(names))
	}
	for _, v := range vs {
		buf = binary.AppendUvarint(buf, v)
	}
	return buf, nil
}

// readAligned reads the n versions appendAligned wrote, into dst's array
// when it has room. n is the length of a slice the frame carried, so
// the frame bounds it.
func readAligned(d *writeset.Decoder, dst []uint64, n int) []uint64 {
	if dst == nil || cap(dst) < n {
		dst = make([]uint64, n)
	}
	dst = dst[:n]
	for i := range dst {
		dst[i] = d.Uvarint()
	}
	return dst
}

func appendInts(buf []byte, xs []int) []byte {
	buf = writeset.AppendLen(buf, len(xs), xs == nil)
	for _, x := range xs {
		buf = binary.AppendVarint(buf, int64(x))
	}
	return buf
}

func readInts(d *writeset.Decoder) []int {
	return readSlice(d, func(d *writeset.Decoder) int { return int(d.Varint()) })
}

// appendVersions appends a table → version map in key order, so equal
// maps encode to equal bytes.
func appendVersions(buf []byte, m map[string]uint64) []byte {
	buf = writeset.AppendLen(buf, len(m), m == nil)
	var arr [8]string
	keys := arr[:0]
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		buf = binary.AppendUvarint(writeset.AppendString(buf, k), m[k])
	}
	return buf
}

// readVersions copies the keys: version maps are kept (the balancer's
// tracker folds them in, the lag gauges hold them), and a map key pins
// whatever it aliases.
func readVersions(d *writeset.Decoder) map[string]uint64 {
	n, isNil := d.Len()
	if isNil || d.Failed() {
		return nil
	}
	m := make(map[string]uint64, n)
	for i := 0; i < n && !d.Failed(); i++ {
		k := strings.Clone(d.Str())
		m[k] = d.Uvarint()
	}
	return m
}

// appendShardMap appends a shard map as its shard count and Spec; a nil
// map as count 0, which no map has.
func appendShardMap(buf []byte, m *shard.Map) []byte {
	if m == nil {
		return binary.AppendUvarint(buf, 0)
	}
	return writeset.AppendString(binary.AppendUvarint(buf, uint64(m.N())), m.Spec())
}

// readShardMap reads what appendShardMap wrote into a map of copied
// names, as it is kept.
func readShardMap(d *writeset.Decoder) *shard.Map {
	n := d.Uvarint()
	if n == 0 || d.Failed() {
		return nil
	}
	m, err := shard.Parse(int(min(n, math.MaxInt32)), strings.Clone(d.Str()))
	if err != nil || n > math.MaxInt32 {
		d.Fail()
	}
	return m
}

func appendSpan(buf []byte, flags byte, sc dtrace.SpanContext) []byte {
	if flags&flagTrace != 0 {
		buf = writeset.AppendSpanContext(buf, sc)
	}
	return buf
}

func readSpan(d *writeset.Decoder, flags byte) dtrace.SpanContext {
	if flags&flagTrace != 0 {
		return d.SpanContext()
	}
	return dtrace.SpanContext{}
}

func appendResult(buf []byte, r *sql.Result) ([]byte, error) {
	if r == nil {
		return buf, nil
	}
	buf = appendStrings(buf, r.Columns)
	buf = writeset.AppendLen(buf, len(r.Rows), r.Rows == nil)
	for _, row := range r.Rows {
		var err error
		if buf, err = writeset.AppendRow(buf, row); err != nil {
			return nil, err
		}
	}
	return binary.AppendVarint(buf, int64(r.Affected)), nil
}

func readResult(d *writeset.Decoder, flags byte) *sql.Result {
	if flags&flagResult == 0 {
		return nil
	}
	return &sql.Result{
		Columns:  readStrings(d),
		Rows:     readSlice(d, (*writeset.Decoder).Row),
		Affected: int(d.Varint()),
	}
}
