package writeset

import (
	"math"
	"testing"
)

// TestValueCodecBitExact: floats travel as their bit pattern, so NaN
// payloads and the sign of zero survive.
func TestValueCodecBitExact(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Float64frombits(0x7ff8000000000001), math.Copysign(0, -1), math.Inf(-1)} {
		enc, err := AppendValue(nil, f)
		if err != nil {
			t.Fatal(err)
		}
		d := NewDecoder(enc)
		got, ok := d.Value().(float64)
		if err := d.Done(); err != nil || !ok || math.Float64bits(got) != math.Float64bits(f) {
			t.Errorf("%x decoded as %x (%v)", math.Float64bits(f), math.Float64bits(got), err)
		}
	}
	if _, err := AppendValue(nil, 7); err == nil {
		t.Error("an int (not int64) row value was accepted")
	}
}

// TestDecoderFailureSticks: after the first failed read the decoder
// returns zero values and Done reports ErrCorrupt; so does a clean walk
// that leaves bytes behind.
func TestDecoderFailureSticks(t *testing.T) {
	d := NewDecoder([]byte{tagString, 5, 'a'}) // a 5-byte string with 1 byte behind it
	if v := d.Value(); v != "" || !d.Failed() {
		t.Fatalf("short string decoded as %#v", v)
	}
	if d.Uvarint() != 0 || d.Str() != "" || d.Value() != nil || d.WriteSet() != nil || d.Remaining() != 0 {
		t.Fatal("decoder kept producing values after failing")
	}
	if d.Done() != ErrCorrupt {
		t.Fatal("Done did not report the failure")
	}
	d = NewDecoder([]byte{tagTrue, 0})
	if d.Value() != true || d.Done() != ErrCorrupt {
		t.Fatal("trailing byte accepted")
	}
}

// TestDecoderBoundsCounts: a count or length that cannot fit in the
// bytes that remain fails before anything is allocated for it.
func TestDecoderBoundsCounts(t *testing.T) {
	huge := []byte{0xff, 0xff, 0xff, 0xff, 0x0f}
	for name, read := range map[string]func(*Decoder){
		"Count": func(d *Decoder) { d.Count() },
		"Len":   func(d *Decoder) { d.Len() },
		"Str":   func(d *Decoder) { _ = d.Str() },
		"Row":   func(d *Decoder) { d.Row() },
	} {
		d := NewDecoder(huge)
		read(d)
		if !d.Failed() {
			t.Errorf("%s accepted a count of 2^32-1 with no bytes behind it", name)
		}
	}
	d := NewDecoder([]byte{0, 1})
	if n, isNil := d.Len(); n != 0 || !isNil {
		t.Errorf("Len of a nil header = %d, %v", n, isNil)
	}
	if n, isNil := d.Len(); n != 0 || isNil || d.Done() != nil {
		t.Errorf("Len of an empty header = %d, %v", n, isNil)
	}
}
