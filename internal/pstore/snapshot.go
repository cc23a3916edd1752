package pstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"strings"

	"sconrep/internal/storage"
	"sconrep/internal/writeset"
)

// Checkpoint snapshot format. A checkpoint is the deterministic binary
// image of everything visible at one commit version S — the consistent
// (snapshot, Vlocal) pair of the fuzzy-checkpoint protocol. Strings and
// rows are in internal/writeset's layout, the one the certify request,
// the refresh stream and the WAL segments beside it already carry:
//
//	magic   "SCKP0002" (8 bytes)
//	uvarint S (snapshot version)
//	uvarint table count
//	per table, in lexical name order:
//	  string name
//	  uvarint #columns; per column: string name, 1 byte type
//	  uvarint #key columns; per: string name
//	  uvarint #indexes; per: string name, string column
//	  uvarint #rows
//	  per row, in primary-key order:
//	    string encoded-pk
//	    uvarint row commit version (≤ S)
//	    row (#values = #columns)
//	crc32 (IEEE, 4 bytes LE) over everything above
//
// A change to the image's layout, the writeset layout included, bumps
// snapMagic; TestCheckpointGoldenImage pins the bytes under it. The
// encoding is canonical: one engine state at one version has exactly
// one byte image (the decoder refuses non-minimal varints), which is
// what lets the recovery-equivalence tests compare replicas with
// bytes.Equal. Loading verifies the trailing CRC before any parsing,
// rejects unsorted or duplicate tables/keys, schema-checks every row,
// and bounds every count by the bytes that remain — arbitrary input
// yields an error, never a panic or a half-built engine. The decoder
// aliases the image, so the loader copies every string the engine
// keeps: one surviving row must not pin the whole file.

const snapMagic = "SCKP0002"

// ErrBadSnapshot reports an unreadable or failed-verification
// checkpoint image.
var ErrBadSnapshot = errors.New("pstore: bad checkpoint snapshot")

// ErrSnapshotFormat reports a checkpoint image in a format this build
// does not read: intact (its CRC matches) but written by another build.
// It is never treated as damage.
var ErrSnapshotFormat = errors.New("pstore: checkpoint image in an unknown format")

// errAborted signals a snapshot write cancelled by the abort callback
// (store closed mid-checkpoint).
var errAborted = errors.New("pstore: snapshot aborted")

// WriteSnapshot writes the image of eng at snap's snapshot to w and
// returns the CRC-inclusive byte count. snap is an unfinished
// transaction of eng, whose pin keeps installs from cutting what the
// scan reads; its own writes are not part of the image. abort, if
// non-nil, is polled between row chunks; returning true abandons the
// write. The scan is fuzzy: it never blocks the apply pipeline (see
// Txn.ScanVisible), yet the image is exactly the state at the snapshot.
func WriteSnapshot(w io.Writer, eng *storage.Engine, snap *storage.Txn, abort func() bool) (int64, error) {
	at := snap.Snapshot()
	cw := &crcWriter{w: w}
	buf := make([]byte, 0, 256)

	buf = append(buf, snapMagic...)
	buf = binary.AppendUvarint(buf, at)
	names := eng.TablesSorted()
	buf = binary.AppendUvarint(buf, uint64(len(names)))
	if err := cw.write(buf); err != nil {
		return cw.n, err
	}

	for _, name := range names {
		sch, ok := eng.Schema(name)
		if !ok {
			return cw.n, fmt.Errorf("pstore: table %s vanished during snapshot", name)
		}
		buf = writeset.AppendString(buf[:0], name)
		buf = binary.AppendUvarint(buf, uint64(len(sch.Columns)))
		for _, c := range sch.Columns {
			buf = writeset.AppendString(buf, c.Name)
			buf = append(buf, byte(c.Type))
		}
		buf = binary.AppendUvarint(buf, uint64(len(sch.Key)))
		for _, k := range sch.Key {
			buf = writeset.AppendString(buf, k)
		}
		buf = binary.AppendUvarint(buf, uint64(len(sch.Indexes)))
		for _, ix := range sch.Indexes {
			buf = writeset.AppendString(buf, ix.Name)
			buf = writeset.AppendString(buf, ix.Column)
		}
		if err := cw.write(buf); err != nil {
			return cw.n, err
		}

		// Row count prefix without a second scan: count first, then
		// emit. Both scans see the same rows — visibility at a fixed
		// version is stable no matter what installs land meanwhile.
		rows := uint64(0)
		err := snap.ScanVisible(name, func(string, uint64, []any) error {
			rows++
			return nil
		})
		if err != nil {
			return cw.n, err
		}
		buf = binary.AppendUvarint(buf[:0], rows)
		if err := cw.write(buf); err != nil {
			return cw.n, err
		}
		emitted := uint64(0)
		err = snap.ScanVisible(name, func(key string, version uint64, row []any) error {
			if emitted%512 == 0 && abort != nil && abort() {
				return errAborted
			}
			emitted++
			buf = writeset.AppendString(buf[:0], key)
			buf = binary.AppendUvarint(buf, version)
			var err error
			if buf, err = writeset.AppendRow(buf, row); err != nil {
				return err
			}
			return cw.write(buf)
		})
		if err != nil {
			return cw.n, err
		}
		if emitted != rows {
			return cw.n, fmt.Errorf("pstore: table %s: %d rows counted, %d emitted", name, rows, emitted)
		}
	}

	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], cw.sum)
	if _, err := cw.w.Write(tail[:]); err != nil {
		return cw.n, err
	}
	cw.n += 4
	return cw.n, nil
}

// SnapshotAt returns the canonical snapshot image of eng at version at,
// which must lie between eng's horizon and its version: below the
// horizon it fails with storage.ErrPruned. The recovery-equivalence
// oracle compares these across replicas.
func SnapshotAt(eng *storage.Engine, at uint64) ([]byte, error) {
	snap, err := eng.BeginAt(at)
	if err != nil {
		return nil, fmt.Errorf("pstore: snapshot at %d: %w", at, err)
	}
	defer snap.Abort()
	var buf bytes.Buffer
	if _, err := WriteSnapshot(&buf, eng, snap, nil); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// LoadSnapshot verifies and decodes a snapshot image into a fresh
// engine, returning it with its snapshot version. The CRC is checked
// before parsing and the engine is built and returned only on full
// success, so a corrupt checkpoint can never leak partial state. An
// intact image with another magic fails with ErrSnapshotFormat.
func LoadSnapshot(data []byte) (*storage.Engine, uint64, error) {
	if len(data) < len(snapMagic)+4 {
		return nil, 0, fmt.Errorf("%w: short image (%d bytes)", ErrBadSnapshot, len(data))
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(tail) {
		return nil, 0, fmt.Errorf("%w: checksum mismatch", ErrBadSnapshot)
	}
	return parseSnapshot(body)
}

// parseSnapshot decodes a CRC-stripped snapshot body. Split from
// LoadSnapshot so the fuzz target can exercise the parser directly —
// the CRC gate would otherwise shield it from nearly every input. The
// decoder's first failure sticks and is reported once, by Done; each
// table header and each row is checked for it before it joins the
// image, and only a fully decoded image reaches storage.Engine.Build,
// which checks key order, row versions and every row against its
// schema.
func parseSnapshot(body []byte) (*storage.Engine, uint64, error) {
	if len(body) < len(snapMagic) {
		return nil, 0, fmt.Errorf("%w: short image (%d bytes)", ErrBadSnapshot, len(body))
	}
	if magic := string(body[:len(snapMagic)]); magic != snapMagic {
		return nil, 0, fmt.Errorf("%w: magic %q, this build reads %q", ErrSnapshotFormat, magic, snapMagic)
	}
	d := writeset.NewDecoder(body[len(snapMagic):])
	at := d.Uvarint()
	var imgs []storage.TableImage
decode:
	for ti, ntables := 0, d.Count(); ti < ntables; ti++ {
		name := strings.Clone(d.Str())
		sch := &storage.Schema{Table: name}
		for i, n := 0, d.Count(); i < n; i++ {
			sch.Columns = append(sch.Columns, storage.Column{Name: strings.Clone(d.Str()), Type: storage.ColType(d.Byte())})
		}
		for i, n := 0, d.Count(); i < n; i++ {
			sch.Key = append(sch.Key, strings.Clone(d.Str()))
		}
		for i, n := 0, d.Count(); i < n; i++ {
			sch.Indexes = append(sch.Indexes, storage.IndexDef{Name: strings.Clone(d.Str()), Column: strings.Clone(d.Str())})
		}
		if d.Failed() {
			break
		}
		if ti > 0 && name <= imgs[ti-1].Schema.Table {
			return nil, 0, fmt.Errorf("%w: tables out of order at %q", ErrBadSnapshot, name)
		}
		nrows := d.Count()
		img := storage.TableImage{Schema: sch, Rows: make([]storage.VersionedRow, 0, nrows)}
		for ri := 0; ri < nrows; ri++ {
			key, rv, row := d.Str(), d.Uvarint(), d.Row()
			if d.Failed() {
				break decode
			}
			for i, v := range row {
				if s, ok := v.(string); ok {
					row[i] = strings.Clone(s)
				}
			}
			img.Rows = append(img.Rows, storage.VersionedRow{Key: strings.Clone(key), Version: rv, Row: row})
		}
		imgs = append(imgs, img)
	}
	if err := d.Done(); err != nil {
		return nil, 0, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	eng := storage.NewEngine()
	if err := eng.Build(at, imgs); err != nil {
		return nil, 0, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	return eng, at, nil
}

// crcWriter tees writes through a running CRC32.
type crcWriter struct {
	w   io.Writer
	sum uint32
	n   int64
}

func (c *crcWriter) write(p []byte) error {
	c.sum = crc32.Update(c.sum, crc32.IEEETable, p)
	n, err := c.w.Write(p)
	c.n += int64(n)
	return err
}
