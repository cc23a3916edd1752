// Package wal provides the append-only record log used for durability:
// the certifier's decision log and the replica-side applied-writeset
// log of the persistent storage backend.
//
// In the paper's design (§IV, following Tashkent) replicas run with
// log forcing disabled; transaction durability is the certifier's
// responsibility. The certifier appends one record per committed
// update transaction — the assigned commit version and the full
// writeset — and forces it before acknowledging. Replica-side logs
// (internal/pstore) append without forcing: a lost suffix is refetched
// from the certifier on recovery.
//
// # Frame format
//
// Each record is a payload wrapped in a 14-byte header:
//
//	[0:2]   magic 0x53 0x57 ("SW")
//	[2:6]   payload size, little-endian uint32 (capped at MaxRecordSize)
//	[6:10]  CRC32 (IEEE) of the payload
//	[10:14] CRC32 (IEEE) of header bytes [0:10]
//
// The payload is the codec version byte, uvarint Version, uvarint TxnID
// and the writeset in internal/writeset's binary layout — the same bytes
// the certify request and the refresh stream carry it in.
//
// The header CRC makes the size field trustworthy before any payload
// allocation happens, so a bit flip in a length prefix cannot turn
// into a multi-gigabyte allocation. On replay, a record that fails
// either CRC triggers a resync scan: if a later fully framed record
// exists, the damage is mid-log and replay fails with ErrCorrupt; if
// nothing valid follows, the damaged record is the torn tail of a
// crashed append and is discarded cleanly. ReplayN reports the byte
// length of the valid prefix so callers can truncate the file before
// appending — appending after a torn tail without truncating would
// strand every later record behind garbage. A record that passes both
// CRCs but whose payload does not decode is neither: the log was
// written by a build with another payload format, and replay fails
// with ErrFormat instead of discarding records that were durable.
package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"

	"sconrep/internal/writeset"
)

// Record is one durable log entry: a commit version and its writeset.
type Record struct {
	Version  uint64
	TxnID    uint64
	WriteSet writeset.WriteSet
}

// ErrCorrupt reports a record that failed its checksum mid-log (not at
// the tail, where truncation is the expected crash artifact).
var ErrCorrupt = errors.New("wal: corrupt record")

// ErrFormat reports a record that is intact on disk (both checksums
// match) but whose payload this build cannot decode: a log written by
// an incompatible build. It is never treated as a torn tail.
var ErrFormat = errors.New("wal: record payload in an unknown format")

// codecVersion is the first byte of every record payload; sconrep-vet's
// wirecompat analyzer ties it to Record's locked layout.
const codecVersion = 1

const (
	headerSize = 14
	magic0     = 0x53
	magic1     = 0x57

	// MaxRecordSize bounds a single record's payload. A size field
	// beyond it is treated as corruption even if the header CRC
	// matches (it cannot have been written by Append).
	MaxRecordSize = 64 << 20
)

// Log is an append-only record log. The zero value is not usable; use
// Open, NewMemory, or NewWriter.
type Log struct {
	mu     sync.Mutex
	w      io.Writer
	closer io.Closer
	syncer interface{ Sync() error }
	buf    bytes.Buffer
	// frame is the reusable header+payload assembly buffer.
	frame []byte
}

// NewMemory returns a log writing to an in-memory buffer — used by
// clusters where durability is simulated by the latency model rather
// than real disk I/O.
func NewMemory() *Log {
	l := &Log{}
	l.w = &l.buf
	return l
}

// NewWriter returns a log appending to w without forcing. Used for
// replica-side applied-writeset logs, which the paper runs non-forced:
// losing the tail is safe because the certifier backfills it. If w is
// an io.Closer, Close closes it.
func NewWriter(w io.Writer) *Log {
	l := &Log{w: w}
	if c, ok := w.(io.Closer); ok {
		l.closer = c
	}
	return l
}

// Open opens (creating if needed) a file-backed log for appending.
// Appends are forced (fsync) — this is the certifier's durability
// path. If the file may end in a torn record from a previous crash,
// replay with ReplayFileN and truncate to the valid prefix first.
func Open(path string) (*Log, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open: %w", err)
	}
	return &Log{w: f, closer: f, syncer: f}, nil
}

// maxRetainedFrame caps the assembly buffer kept between appends, so one
// huge record does not pin its size for the life of the log.
const maxRetainedFrame = 1 << 20

// appendRecord appends r's payload encoding to buf.
//
// wirecompat:codec
func appendRecord(buf []byte, r *Record) ([]byte, error) {
	buf = append(buf, codecVersion)
	buf = binary.AppendUvarint(buf, r.Version)
	buf = binary.AppendUvarint(buf, r.TxnID)
	return r.WriteSet.AppendTo(buf)
}

// parseRecord decodes one payload into r. Decoded strings alias p.
//
// wirecompat:codec
func parseRecord(p []byte, r *Record) error {
	d := writeset.NewDecoder(p)
	if v := d.Byte(); v != codecVersion && !d.Failed() {
		return fmt.Errorf("payload version %d, this build reads version %d", v, codecVersion)
	}
	r.Version = d.Uvarint()
	r.TxnID = d.Uvarint()
	ws := d.WriteSet()
	if err := d.Done(); err != nil {
		return err
	}
	if ws == nil {
		return errors.New("record without a writeset")
	}
	r.WriteSet = *ws
	return nil
}

// Append writes one record and, for forced logs, syncs it to stable
// storage.
func (l *Log) Append(r *Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if cap(l.frame) < headerSize {
		l.frame = make([]byte, headerSize, 256)
	}
	frame, err := appendRecord(l.frame[:headerSize], r)
	if err != nil {
		return fmt.Errorf("wal: encode: %w", err)
	}
	if cap(frame) <= maxRetainedFrame {
		l.frame = frame
	}
	body := frame[headerSize:]
	if len(body) > MaxRecordSize {
		return fmt.Errorf("wal: record too large (%d bytes)", len(body))
	}
	frame[0] = magic0
	frame[1] = magic1
	binary.LittleEndian.PutUint32(frame[2:6], uint32(len(body)))
	binary.LittleEndian.PutUint32(frame[6:10], crc32.ChecksumIEEE(body))
	binary.LittleEndian.PutUint32(frame[10:14], crc32.ChecksumIEEE(frame[0:10]))

	if _, err := l.w.Write(frame); err != nil {
		return fmt.Errorf("wal: write: %w", err)
	}
	if l.syncer != nil {
		if err := l.syncer.Sync(); err != nil {
			return fmt.Errorf("wal: sync: %w", err)
		}
	}
	return nil
}

// Close closes the underlying file, if any.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closer != nil {
		return l.closer.Close()
	}
	return nil
}

// MemoryBytes returns a copy of an in-memory log's contents (nil for
// file-backed logs); used to replay without touching disk.
func (l *Log) MemoryBytes() []byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]byte(nil), l.buf.Bytes()...)
}

// Replay reads records from r until EOF, invoking fn for each. A
// truncated or bit-flipped tail record (torn final write) ends replay
// cleanly; a checksum mismatch with a valid record after it returns
// ErrCorrupt, and an intact record this build cannot decode returns
// ErrFormat. Strings in a delivered record alias that record's payload
// buffer, which is allocated per record and never reused.
func Replay(r io.Reader, fn func(*Record) error) error {
	_, err := ReplayN(r, fn)
	return err
}

// ReplayN is Replay returning, additionally, the byte length of the
// valid record prefix. Callers that will append to the same file must
// truncate it to that length first, or records appended after a
// discarded torn tail are unreachable on the next replay.
func ReplayN(r io.Reader, fn func(*Record) error) (int64, error) {
	br := &countingReader{r: r}
	valid := int64(0)
	for {
		start := br.n
		var hdr [headerSize]byte
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			if err == io.EOF || errors.Is(err, io.ErrUnexpectedEOF) {
				return valid, nil // clean EOF or torn header at tail
			}
			return valid, fmt.Errorf("wal: read header: %w", err)
		}
		size := binary.LittleEndian.Uint32(hdr[2:6])
		if hdr[0] != magic0 || hdr[1] != magic1 ||
			crc32.ChecksumIEEE(hdr[0:10]) != binary.LittleEndian.Uint32(hdr[10:14]) ||
			size > MaxRecordSize {
			return valid, resync(br, hdr[:], nil, start)
		}
		payload := make([]byte, size)
		if _, err := io.ReadFull(br, payload); err != nil {
			if err == io.EOF || errors.Is(err, io.ErrUnexpectedEOF) {
				return valid, nil // torn payload at tail
			}
			return valid, fmt.Errorf("wal: read payload: %w", err)
		}
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(hdr[6:10]) {
			return valid, resync(br, hdr[:], payload, start)
		}
		var rec Record
		if err := parseRecord(payload, &rec); err != nil {
			return valid, fmt.Errorf("%w at offset %d (checksums match, so this is not a torn tail; the log was written by an incompatible build): %v", ErrFormat, start, err)
		}
		if err := fn(&rec); err != nil {
			return valid, err
		}
		valid = br.n
	}
}

// resync decides whether a damaged record at offset start is a torn
// tail (nothing framed after it — discard cleanly) or mid-log damage
// (a later record still frames correctly — ErrCorrupt). consumed holds
// the bytes of the damaged record already read (header, then payload
// if it was reached).
func resync(br io.Reader, hdr, payload []byte, start int64) error {
	rest, err := io.ReadAll(br)
	if err != nil {
		return fmt.Errorf("wal: read during resync: %w", err)
	}
	region := make([]byte, 0, len(hdr)+len(payload)+len(rest))
	region = append(region, hdr...)
	region = append(region, payload...)
	region = append(region, rest...)
	// Scan past the damaged record's own start for any later offset
	// that frames as a record: magic, a valid header CRC, and a size
	// that fits in the remaining bytes.
	for i := 1; i+headerSize <= len(region); i++ {
		if region[i] != magic0 || region[i+1] != magic1 {
			continue
		}
		h := region[i : i+headerSize]
		if crc32.ChecksumIEEE(h[0:10]) != binary.LittleEndian.Uint32(h[10:14]) {
			continue
		}
		size := binary.LittleEndian.Uint32(h[2:6])
		if size > MaxRecordSize || i+headerSize+int(size) > len(region) {
			continue
		}
		if crc32.ChecksumIEEE(region[i+headerSize:i+headerSize+int(size)]) != binary.LittleEndian.Uint32(h[6:10]) {
			continue
		}
		return fmt.Errorf("%w at offset %d", ErrCorrupt, start)
	}
	return nil // torn tail: nothing valid after the damage
}

// ReplayFile replays a file-backed log.
func ReplayFile(path string, fn func(*Record) error) error {
	_, err := ReplayFileN(path, fn)
	return err
}

// ReplayFileN replays a file-backed log and returns the valid prefix
// length (0 if the file does not exist). To reopen the log for
// appending after a crash, truncate the file to the returned length
// first (see Open).
func ReplayFileN(path string, fn func(*Record) error) (int64, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, fmt.Errorf("wal: open for replay: %w", err)
	}
	defer f.Close()
	return ReplayN(f, fn)
}

type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}
