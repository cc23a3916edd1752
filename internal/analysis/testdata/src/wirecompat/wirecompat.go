// Fixture for the wirecompat analyzer. The companion schema.lock was
// "committed" for an older revision of these structs and under
// codecVersion 1, so every class of violation appears once: the
// version constant moved without the lock, hello lost its Legacy field
// (the seeded removed-certHello-field mutant), req changed a field
// type, resp grew an unlocked field, novel is a new unlocked struct,
// swap reordered fields, and envelope carries the field shapes that
// cannot travel. hello and req reach the codec only through the call
// wrapper, proving sink-parameter propagation; record is a root as a
// concrete parameter of a tagged function; item only through the named
// slice batch.
package wirecompat

import "io"

const codecVersion = 2 // want `codecVersion is 2 but .* locks version 1 for wirecompat`

type hello struct { // want `wire field wirecompat\.hello\.Legacy \(uint64\) was removed or renamed`
	Kind   string
	Shards []int
}

type req struct {
	Seq int64 // want `changed type uint64 -> int64`
}

type resp struct {
	Seq   uint64
	Extra string // want `new wire field wirecompat\.resp\.Extra`
}

type novel struct { // want `reaches the codec but is not locked`
	N int
}

type swap struct { // want `field order differs`
	A int
	B int
}

type envelope struct {
	Done   chan int  // want `contains a chan`
	Body   io.Reader // want `non-empty interface`
	secret int       // want `unexported field`
	Blob   []byte
}

type record struct {
	V uint64
}

type item struct {
	K string
	V int // want `new wire field wirecompat\.item\.V`
}

type batch []item

type frame interface{ appendTo([]byte) []byte }

func (*hello) appendTo(b []byte) []byte    { return b }
func (*req) appendTo(b []byte) []byte      { return b }
func (*resp) appendTo(b []byte) []byte     { return b }
func (*novel) appendTo(b []byte) []byte    { return b }
func (swap) appendTo(b []byte) []byte      { return b }
func (*envelope) appendTo(b []byte) []byte { return b }
func (batch) appendTo(b []byte) []byte     { return b }

// send is the codec's entry point: what is passed as f travels.
//
// wirecompat:codec
func send(w io.Writer, f frame) error {
	_, err := w.Write(f.appendTo(nil))
	return err
}

// call is a wrapper: its f flows into send, so it is a sink too.
func call(w io.Writer, f frame) error { return send(w, f) }

// appendRecord is tagged with a concrete parameter: record is a root
// without ever being passed as an interface.
//
// wirecompat:codec
func appendRecord(buf []byte, r *record) []byte { return append(buf, byte(r.V)) }

func roundTrip(w io.Writer) {
	_ = call(w, &hello{})
	_ = call(w, &req{})
	_ = call(w, &novel{})
	_ = send(w, &envelope{})
	_ = send(w, swap{})
	_ = send(w, batch{})
	var rs resp
	_ = send(w, &rs)
	_ = appendRecord(nil, &record{})
}

var _ = roundTrip
