package writeset

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"unsafe"

	"sconrep/internal/obs/dtrace"
)

// Binary codec. A writeset crosses the certify request, the refresh
// stream, recovery history pages, the decision log and a replica's WAL
// segments; a row value additionally crosses the client and replica
// links as a statement parameter or a result cell, and a string or row
// is the unit of a replica's checkpoint image (internal/pstore). All of
// them use the one layout below, so this file is the only place that
// knows it. A change to it bumps, together, the wire codecVersion, the
// wal codecVersion and pstore's snapMagic: each carrier refuses bytes
// of another version instead of misreading them.
//
//	writeset: flags byte (0 = nil writeset, the version skip marker)
//	          [flagTrace] 16-byte TraceID + 8-byte SpanID
//	          uvarint item count, then per item:
//	            string Table, string Key, op byte, row
//	row:      uvarint 0 for a nil row, else 1+len, then per value
//	          a tag byte (nil/int64/float64/string/false/true) and the
//	          value: varint, 8 little-endian IEEE bytes, or a string
//	string:   uvarint length, bytes
//
// Append functions extend a caller-owned buffer; Decoder walks one. The
// Decoder aliases every string into the buffer it was given
// (unsafe.String, no copy), so that buffer must be immutable and
// single-use for as long as anything decoded from it lives, and one
// retained string pins all of it: callers that keep a decoded string
// past the message it arrived in clone it first.

// ErrCorrupt reports bytes that are not a complete, well-formed
// encoding: truncated, a count that cannot fit in what remains, an
// unknown tag, op or flag byte, or trailing bytes after the last field.
var ErrCorrupt = errors.New("writeset: corrupt encoding")

// Writeset flags.
const (
	flagPresent = 1 << 0 // a writeset follows (clear: nil writeset)
	flagTrace   = 1 << 1 // the writeset carries a span context (16+8 bytes)
)

// Row value tags.
const (
	tagNil = iota
	tagInt64
	tagFloat64
	tagString
	tagFalse
	tagTrue
)

// AppendString appends a length-prefixed string.
func AppendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// AppendLen appends a slice or map header that keeps nil apart from
// empty: 0 for nil, 1+n otherwise.
func AppendLen(buf []byte, n int, isNil bool) []byte {
	if isNil {
		return append(buf, 0)
	}
	return binary.AppendUvarint(buf, uint64(n)+1)
}

// AppendSpanContext appends the 24 bytes of a span context.
func AppendSpanContext(buf []byte, sc dtrace.SpanContext) []byte {
	buf = append(buf, sc.Trace[:]...)
	return append(buf, sc.Span[:]...)
}

// AppendValue appends one row value.
func AppendValue(buf []byte, v any) ([]byte, error) {
	switch v := v.(type) {
	case nil:
		return append(buf, tagNil), nil
	case int64:
		return binary.AppendVarint(append(buf, tagInt64), v), nil
	case float64:
		return binary.LittleEndian.AppendUint64(append(buf, tagFloat64), math.Float64bits(v)), nil
	case string:
		return AppendString(append(buf, tagString), v), nil
	case bool:
		if v {
			return append(buf, tagTrue), nil
		}
		return append(buf, tagFalse), nil
	default:
		return nil, fmt.Errorf("writeset: unsupported row value %T", v)
	}
}

// AppendRow appends a row (or a parameter list): nil stays nil.
func AppendRow(buf []byte, row []any) ([]byte, error) {
	buf = AppendLen(buf, len(row), row == nil)
	for _, v := range row {
		var err error
		if buf, err = AppendValue(buf, v); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// AppendTo appends the writeset; a nil receiver encodes as the one-byte
// skip marker.
func (ws *WriteSet) AppendTo(buf []byte) ([]byte, error) {
	if ws == nil {
		return append(buf, 0), nil
	}
	if ws.Trace == nil {
		buf = append(buf, flagPresent)
	} else {
		buf = AppendSpanContext(append(buf, flagPresent|flagTrace), *ws.Trace)
	}
	buf = binary.AppendUvarint(buf, uint64(len(ws.Items)))
	for i := range ws.Items {
		it := &ws.Items[i]
		buf = AppendString(buf, it.Table)
		buf = AppendString(buf, it.Key)
		buf = append(buf, byte(it.Op))
		var err error
		if buf, err = AppendRow(buf, it.Row); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// Decoder walks one encoded buffer. Every read is bounds-checked and
// the first failure sticks: later reads return zero values and Done
// reports ErrCorrupt, so a parser reads its fields straight through and
// checks once. Counts are bounded by the bytes that remain before
// anything is allocated, so a hostile buffer cannot force a huge make.
type Decoder struct {
	p   []byte
	off int
	err error
}

// NewDecoder returns a decoder over p; see the package codec comment
// for what aliasing demands of p.
func NewDecoder(p []byte) *Decoder { return &Decoder{p: p} }

// Reset points the decoder at a new buffer, so one Decoder value serves
// every frame of a connection.
func (d *Decoder) Reset(p []byte) { *d = Decoder{p: p} }

// Fail marks the buffer corrupt; for callers that validate a field the
// decoder cannot (an enum byte out of range).
func (d *Decoder) Fail() {
	d.err = ErrCorrupt
	d.off = len(d.p)
}

// Failed reports whether a read has failed; decode loops stop on it.
func (d *Decoder) Failed() bool { return d.err != nil }

// Done ends the walk: it reports the sticky error, or ErrCorrupt when
// bytes remain — a desynchronized stream must fail loudly, not deliver
// a prefix.
func (d *Decoder) Done() error {
	if d.err == nil && d.off != len(d.p) {
		d.err = ErrCorrupt
	}
	return d.err
}

// Remaining returns the number of unread bytes.
func (d *Decoder) Remaining() int { return len(d.p) - d.off }

// Uvarint reads an unsigned varint. Only the minimal encoding is
// accepted — a final zero byte adds nothing — so every value has one
// byte image, which the canonical checkpoint image relies on.
func (d *Decoder) Uvarint() uint64 {
	v, n := binary.Uvarint(d.p[d.off:])
	if n <= 0 || n > 1 && d.p[d.off+n-1] == 0 {
		d.Fail()
		return 0
	}
	d.off += n
	return v
}

// Varint reads a zig-zag signed varint (binary.AppendVarint), minimal
// like Uvarint.
func (d *Decoder) Varint() int64 {
	u := d.Uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// Byte reads one byte.
func (d *Decoder) Byte() byte {
	if d.off >= len(d.p) {
		d.Fail()
		return 0
	}
	b := d.p[d.off]
	d.off++
	return b
}

// Bytes reads n bytes, aliasing the buffer.
func (d *Decoder) Bytes(n int) []byte {
	if n < 0 || n > d.Remaining() {
		d.Fail()
		return nil
	}
	b := d.p[d.off : d.off+n]
	d.off += n
	return b
}

// Str reads a length-prefixed string aliasing the buffer.
func (d *Decoder) Str() string {
	n := d.Uvarint()
	if n > uint64(d.Remaining()) {
		d.Fail()
		return ""
	}
	b := d.Bytes(int(n))
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}

// Count reads an element count and rejects one that cannot fit in the
// remaining bytes (every counted element is at least one byte).
func (d *Decoder) Count() int {
	n := d.Uvarint()
	if n > uint64(d.Remaining()) {
		d.Fail()
		return 0
	}
	return int(n)
}

// Len reads an AppendLen header, bounded like Count.
func (d *Decoder) Len() (n int, isNil bool) {
	v := d.Uvarint()
	if v == 0 {
		return 0, !d.Failed()
	}
	if v-1 > uint64(d.Remaining()) {
		d.Fail()
		return 0, false
	}
	return int(v - 1), false
}

// SpanContext reads the 24 bytes of a span context.
func (d *Decoder) SpanContext() (sc dtrace.SpanContext) {
	if b := d.Bytes(len(sc.Trace) + len(sc.Span)); b != nil {
		copy(sc.Trace[:], b)
		copy(sc.Span[:], b[len(sc.Trace):])
	}
	return sc
}

// Value reads one row value.
func (d *Decoder) Value() any {
	switch d.Byte() {
	case tagNil:
		return nil
	case tagInt64:
		return d.Varint()
	case tagFloat64:
		if b := d.Bytes(8); b != nil {
			return math.Float64frombits(binary.LittleEndian.Uint64(b))
		}
		return nil
	case tagString:
		return d.Str()
	case tagFalse:
		return false
	case tagTrue:
		return true
	default:
		d.Fail()
		return nil
	}
}

// Row reads an AppendRow row.
func (d *Decoder) Row() []any { return d.RowInto(nil) }

// RowInto reads an AppendRow row into dst's array when it has room for
// it, into a new one otherwise; a nil row stays nil.
func (d *Decoder) RowInto(dst []any) []any {
	n, isNil := d.Len()
	if isNil || d.Failed() {
		return nil
	}
	if dst == nil || cap(dst) < n {
		dst = make([]any, n)
	}
	dst = dst[:n]
	for i := 0; i < n && !d.Failed(); i++ {
		dst[i] = d.Value()
	}
	return dst
}

// WriteSet reads an AppendTo writeset; nil for the skip marker.
func (d *Decoder) WriteSet() *WriteSet {
	flags := d.Byte()
	if flags == 0 || d.Failed() {
		return nil
	}
	if flags&^(flagPresent|flagTrace) != 0 || flags&flagPresent == 0 {
		d.Fail() // unknown bits, or a trace without the writeset it rides
		return nil
	}
	ws := &WriteSet{}
	if flags&flagTrace != 0 {
		sc := d.SpanContext()
		ws.Trace = &sc
	}
	if n := d.Count(); n > 0 {
		ws.Items = make([]Item, n)
	}
	for i := 0; i < len(ws.Items) && !d.Failed(); i++ {
		it := &ws.Items[i]
		it.Table = d.Str()
		it.Key = d.Str()
		switch op := Op(d.Byte()); op {
		case OpInsert, OpUpdate, OpDelete:
			it.Op = op
		default:
			d.Fail()
		}
		it.Row = d.Row()
	}
	return ws
}
