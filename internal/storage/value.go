package storage

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"
)

// Column values in this engine are one of: int64, float64, string,
// bool, or nil (SQL NULL). This file implements typed comparison and
// order-preserving key encoding for those values.

// ColType is the declared type of a column.
type ColType uint8

const (
	// TInt is a 64-bit signed integer column.
	TInt ColType = iota + 1
	// TFloat is a 64-bit IEEE float column.
	TFloat
	// TString is a UTF-8 string column.
	TString
	// TBool is a boolean column.
	TBool
)

// String returns the SQL name of the type.
func (t ColType) String() string {
	switch t {
	case TInt:
		return "INT"
	case TFloat:
		return "FLOAT"
	case TString:
		return "TEXT"
	case TBool:
		return "BOOL"
	default:
		return fmt.Sprintf("ColType(%d)", uint8(t))
	}
}

// CheckValue reports whether v is a legal value for a column of type t.
// nil (NULL) is legal for every type.
func CheckValue(t ColType, v any) error {
	if v == nil {
		return nil
	}
	ok := false
	switch t {
	case TInt:
		_, ok = v.(int64)
	case TFloat:
		_, ok = v.(float64)
	case TString:
		_, ok = v.(string)
	case TBool:
		_, ok = v.(bool)
	}
	if !ok {
		return fmt.Errorf("storage: value %v (%T) not valid for column type %s", v, v, t)
	}
	return nil
}

// CompareValues orders two non-nil values of the same dynamic type.
// NULL sorts before every value, and two NULLs compare equal (this is
// the index/ORDER BY ordering, not SQL predicate semantics — predicate
// evaluation treats NULL comparisons as unknown at the SQL layer).
func CompareValues(a, b any) int {
	if a == nil || b == nil {
		switch {
		case a == nil && b == nil:
			return 0
		case a == nil:
			return -1
		default:
			return 1
		}
	}
	switch av := a.(type) {
	case int64:
		switch bv := b.(type) {
		case int64:
			switch {
			case av < bv:
				return -1
			case av > bv:
				return 1
			}
			return 0
		case float64:
			return CompareValues(float64(av), bv)
		}
	case float64:
		switch bv := b.(type) {
		case float64:
			switch {
			case av < bv:
				return -1
			case av > bv:
				return 1
			}
			return 0
		case int64:
			return CompareValues(av, float64(bv))
		}
	case string:
		if bv, ok := b.(string); ok {
			return strings.Compare(av, bv)
		}
	case bool:
		if bv, ok := b.(bool); ok {
			switch {
			case !av && bv:
				return -1
			case av && !bv:
				return 1
			}
			return 0
		}
	}
	panic(fmt.Sprintf("storage: incomparable values %T vs %T", a, b))
}

// ValuesEqual reports typed equality with numeric coercion between
// int64 and float64. Values of different kinds are unequal; two NULLs
// are equal.
func ValuesEqual(a, b any) bool {
	switch av := a.(type) {
	case nil:
		return b == nil
	case int64, float64:
		switch b.(type) {
		case int64, float64:
			return CompareValues(a, b) == 0
		}
	case string:
		bv, ok := b.(string)
		return ok && av == bv
	case bool:
		bv, ok := b.(bool)
		return ok && av == bv
	}
	return false
}

// EncodeValue appends an order-preserving encoding of v to dst:
// comparing encoded byte strings gives the same order as
// CompareValues for values of the same type. Each value is prefixed
// with a type tag so NULL (tag 0) sorts first.
func EncodeValue(dst []byte, v any) []byte {
	switch tv := v.(type) {
	case nil:
		return append(dst, 0x00)
	case bool:
		dst = append(dst, 0x01)
		if tv {
			return append(dst, 1)
		}
		return append(dst, 0)
	case int64:
		dst = append(dst, 0x02)
		var buf [8]byte
		binary.BigEndian.PutUint64(buf[:], uint64(tv)^(1<<63))
		return append(dst, buf[:]...)
	case float64:
		dst = append(dst, 0x03)
		bits := math.Float64bits(tv)
		if tv >= 0 || bits == 0 {
			bits |= 1 << 63
		} else {
			bits = ^bits
		}
		var buf [8]byte
		binary.BigEndian.PutUint64(buf[:], bits)
		return append(dst, buf[:]...)
	case string:
		// Escape NUL so the 0x00 0x00 terminator is unambiguous and
		// the encoding stays order-preserving.
		dst = append(dst, 0x04)
		if strings.IndexByte(tv, 0x00) < 0 {
			dst = append(dst, tv...)
			return append(dst, 0x00, 0x00)
		}
		for i := 0; i < len(tv); i++ {
			if tv[i] == 0x00 {
				dst = append(dst, 0x00, 0xFF)
			} else {
				dst = append(dst, tv[i])
			}
		}
		return append(dst, 0x00, 0x00)
	default:
		panic(fmt.Sprintf("storage: cannot encode value of type %T", v))
	}
}

// EncodeKey encodes a composite key as a single order-preserving
// string. The result is the storage engine's row identifier.
func EncodeKey(vals ...any) string {
	var buf [64]byte // on the stack: most keys are one or two integers
	dst := buf[:0]
	for _, v := range vals {
		dst = EncodeValue(dst, v)
	}
	return string(dst)
}

// FormatValue renders a value the way the SQL shell prints it.
func FormatValue(v any) string {
	switch tv := v.(type) {
	case nil:
		return "NULL"
	case string:
		return tv
	case float64:
		return fmt.Sprintf("%g", tv)
	default:
		return fmt.Sprintf("%v", tv)
	}
}
