package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"sconrep/internal/writeset"
)

func record(v uint64) *Record {
	return &Record{
		Version: v,
		TxnID:   v * 10,
		WriteSet: writeset.WriteSet{Items: []writeset.Item{
			{Table: "t", Key: "k", Op: writeset.OpUpdate, Row: []any{int64(v), "x"}},
		}},
	}
}

func TestMemoryRoundTrip(t *testing.T) {
	l := NewMemory()
	for v := uint64(1); v <= 5; v++ {
		if err := l.Append(record(v)); err != nil {
			t.Fatal(err)
		}
	}
	var got []uint64
	err := Replay(bytes.NewReader(l.MemoryBytes()), func(r *Record) error {
		got = append(got, r.Version)
		if r.WriteSet.Items[0].Row[0].(int64) != int64(r.Version) {
			t.Fatalf("row mismatch in record %d", r.Version)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 || got[0] != 1 || got[4] != 5 {
		t.Fatalf("replayed versions = %v", got)
	}
}

func TestFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for v := uint64(1); v <= 3; v++ {
		if err := l.Append(record(v)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	var n int
	if err := ReplayFile(path, func(r *Record) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("replayed %d records, want 3", n)
	}
	// Appending after reopen continues the log.
	l, err = Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(record(4)); err != nil {
		t.Fatal(err)
	}
	l.Close()
	n = 0
	if err := ReplayFile(path, func(r *Record) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("after reopen: %d records, want 4", n)
	}
}

func TestReplayMissingFile(t *testing.T) {
	err := ReplayFile(filepath.Join(t.TempDir(), "nope.log"), func(*Record) error {
		t.Fatal("callback on missing file")
		return nil
	})
	if err != nil {
		t.Fatalf("missing file err = %v, want nil", err)
	}
}

func TestTornTailIsTruncated(t *testing.T) {
	l := NewMemory()
	_ = l.Append(record(1))
	_ = l.Append(record(2))
	data := l.MemoryBytes()
	// Chop bytes off the final record: replay must stop after record 1.
	for cut := 1; cut < 20; cut++ {
		torn := data[:len(data)-cut]
		var got []uint64
		if err := Replay(bytes.NewReader(torn), func(r *Record) error {
			got = append(got, r.Version)
			return nil
		}); err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if len(got) != 1 || got[0] != 1 {
			t.Fatalf("cut %d: replayed %v, want [1]", cut, got)
		}
	}
}

// TestTailCorruptionEveryByte is the torn-write regression: whatever
// single byte of the final record a crash (or a failing disk) mangles
// — header magic, size, either CRC, or payload — replay must discard
// exactly that record and report the valid prefix before it, never an
// error and never a short or oversized allocation.
func TestTailCorruptionEveryByte(t *testing.T) {
	l := NewMemory()
	_ = l.Append(record(1))
	_ = l.Append(record(2))
	prefix := int64(len(l.MemoryBytes()))
	_ = l.Append(record(3))
	data := l.MemoryBytes()

	check := func(kind string, pos int, mutated []byte) {
		var got []uint64
		n, err := ReplayN(bytes.NewReader(mutated), func(r *Record) error {
			got = append(got, r.Version)
			return nil
		})
		if err != nil {
			t.Fatalf("%s at %d: err = %v, want nil", kind, pos, err)
		}
		if len(got) != 2 || got[0] != 1 || got[1] != 2 {
			t.Fatalf("%s at %d: replayed %v, want [1 2]", kind, pos, got)
		}
		if n != prefix {
			t.Fatalf("%s at %d: valid prefix = %d, want %d", kind, pos, n, prefix)
		}
	}

	for pos := int(prefix); pos < len(data); pos++ {
		// Bit-flip every byte of the last record.
		flipped := append([]byte(nil), data...)
		flipped[pos] ^= 0xff
		check("flip", pos, flipped)
		// Truncate at every byte offset inside the last record.
		check("cut", pos, data[:pos])
	}
}

// A corrupted size field must never drive a payload allocation: the
// header CRC catches it, and even a crafted header with a valid CRC is
// rejected beyond MaxRecordSize.
func TestOversizedRecordRejected(t *testing.T) {
	hdr := make([]byte, headerSize)
	hdr[0], hdr[1] = magic0, magic1
	binary.LittleEndian.PutUint32(hdr[2:6], 1<<31)
	binary.LittleEndian.PutUint32(hdr[6:10], 0)
	binary.LittleEndian.PutUint32(hdr[10:14], crc32.ChecksumIEEE(hdr[0:10]))
	n, err := ReplayN(bytes.NewReader(hdr), func(*Record) error {
		t.Fatal("callback on oversized record")
		return nil
	})
	if err != nil || n != 0 {
		t.Fatalf("oversized lone record: n=%d err=%v, want 0, nil", n, err)
	}
}

// Reopening a log that crashed mid-append must truncate the torn tail
// before appending, or the new records land behind garbage and are
// lost on the next replay.
func TestTruncateTornTailThenAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	_ = l.Append(record(1))
	_ = l.Append(record(2))
	l.Close()
	// Tear the tail: chop half of record 2.
	fi, _ := os.Stat(path)
	if err := os.Truncate(path, fi.Size()-10); err != nil {
		t.Fatal(err)
	}
	valid, err := ReplayFileN(path, func(*Record) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, valid); err != nil {
		t.Fatal(err)
	}
	l, err = Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(record(9)); err != nil {
		t.Fatal(err)
	}
	l.Close()
	var got []uint64
	if err := ReplayFile(path, func(r *Record) error {
		got = append(got, r.Version)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != 1 || got[1] != 9 {
		t.Fatalf("replayed %v, want [1 9]", got)
	}
}

func TestMidLogCorruptionDetected(t *testing.T) {
	l := NewMemory()
	_ = l.Append(record(1))
	_ = l.Append(record(2))
	data := l.MemoryBytes()
	// A flip anywhere in the first record — header or payload — must be
	// reported as corruption, because a valid record follows it.
	for _, pos := range []int{0, 3, 7, 10, headerSize, headerSize + 5} {
		mutated := append([]byte(nil), data...)
		mutated[pos] ^= 0xff
		err := Replay(bytes.NewReader(mutated), func(*Record) error { return nil })
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("flip at %d: err = %v, want ErrCorrupt", pos, err)
		}
	}
}

func TestReplayFilePermissionIndependent(t *testing.T) {
	// A log written then made read-only must still replay.
	path := filepath.Join(t.TempDir(), "ro.log")
	l, _ := Open(path)
	_ = l.Append(record(7))
	l.Close()
	if err := os.Chmod(path, 0o444); err != nil {
		t.Skip("cannot chmod")
	}
	var n int
	if err := ReplayFile(path, func(*Record) error { n++; return nil }); err != nil || n != 1 {
		t.Fatalf("replay = %d, %v", n, err)
	}
}

// framed wraps payload in a record header with valid checksums, as
// Append would.
func framed(payload []byte) []byte {
	frame := make([]byte, headerSize, headerSize+len(payload))
	frame[0], frame[1] = magic0, magic1
	binary.LittleEndian.PutUint32(frame[2:6], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[6:10], crc32.ChecksumIEEE(payload))
	binary.LittleEndian.PutUint32(frame[10:14], crc32.ChecksumIEEE(frame[0:10]))
	return append(frame, payload...)
}

// TestIntactRecordInAnotherFormatFailsLoudly: a record that passes both
// checksums but whose payload this build cannot decode — a log written
// by a build with another payload format, here the first bytes of a
// gob stream, another version byte, and a truncated current payload —
// fails replay with ErrFormat. It is not a torn tail, wherever it sits:
// the valid prefix stops before it and nothing is discarded silently.
func TestIntactRecordInAnotherFormatFailsLoudly(t *testing.T) {
	l := NewMemory()
	_ = l.Append(record(1))
	good := l.MemoryBytes()
	current, err := appendRecord(nil, record(2))
	if err != nil {
		t.Fatal(err)
	}
	for name, payload := range map[string][]byte{
		"gob stream":      {0x3b, 0xff, 0x81, 0x03, 0x01, 0x01, 0x06, 'R', 'e', 'c', 'o', 'r', 'd'},
		"later version":   append([]byte{codecVersion + 1}, current[1:]...),
		"short payload":   current[:len(current)-1],
		"trailing bytes":  append(append([]byte{}, current...), 0),
		"nil writeset":    {codecVersion, 2, 20, 0},
		"empty payload":   {},
		"unknown op byte": {codecVersion, 2, 20, 1, 1, 1, 't', 1, 'k', 9, 0},
	} {
		for _, tail := range [][]byte{nil, good} { // at the tail, and mid-log
			data := append(append(append([]byte{}, good...), framed(payload)...), tail...)
			var got []uint64
			n, err := ReplayN(bytes.NewReader(data), func(r *Record) error {
				got = append(got, r.Version)
				return nil
			})
			if !errors.Is(err, ErrFormat) || errors.Is(err, ErrCorrupt) {
				t.Errorf("%s: err = %v, want ErrFormat", name, err)
			}
			if n != int64(len(good)) || len(got) != 1 {
				t.Errorf("%s: valid prefix %d with %d records, want %d with 1", name, n, len(got), len(good))
			}
		}
	}
}
