package pstore

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sconrep/internal/storage"
	"sconrep/internal/writeset"
)

// goldenPath holds typedEngine's checkpoint image as hex.
const goldenPath = "testdata/typed.ckpt.hex"

// goldenImage reads the committed checkpoint image of typedEngine.
func goldenImage(t testing.TB) []byte {
	t.Helper()
	text, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	img, err := hex.DecodeString(strings.TrimSpace(string(text)))
	if err != nil {
		t.Fatalf("%s: %v", goldenPath, err)
	}
	return img
}

// typedEngine builds an engine exercising every value type, NULLs,
// strings with NULs, multiple tables, and a composite key.
func typedEngine(t testing.TB) *storage.Engine {
	return typedEngineWith(t, func(*storage.Engine) {})
}

// typedEngineWith is typedEngine calling at(e) as e reaches each
// version, before the next write lands.
func typedEngineWith(t testing.TB, at func(e *storage.Engine)) *storage.Engine {
	e := storage.NewEngine()
	if err := e.CreateTable(&storage.Schema{
		Table: "a_typed",
		Columns: []storage.Column{
			{Name: "id", Type: storage.TInt},
			{Name: "f", Type: storage.TFloat},
			{Name: "s", Type: storage.TString},
			{Name: "b", Type: storage.TBool},
		},
		Key:     []string{"id"},
		Indexes: []storage.IndexDef{{Name: "a_f", Column: "f"}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := e.CreateTable(&storage.Schema{
		Table: "b_pairs",
		Columns: []storage.Column{
			{Name: "x", Type: storage.TString},
			{Name: "y", Type: storage.TInt},
			{Name: "n", Type: storage.TString},
		},
		Key: []string{"x", "y"},
	}); err != nil {
		t.Fatal(err)
	}
	rows := []struct {
		table string
		key   string
		row   []any
	}{
		{"a_typed", storage.EncodeKey(int64(1)), []any{int64(1), 3.25, "plain", true}},
		{"a_typed", storage.EncodeKey(int64(2)), []any{int64(2), -0.5, "nul\x00inside", false}},
		{"a_typed", storage.EncodeKey(int64(3)), []any{int64(3), nil, nil, nil}},
		{"b_pairs", storage.EncodeKey("k", int64(7)), []any{"k", int64(7), ""}},
	}
	v := uint64(0)
	for _, r := range rows {
		v++
		ws := &writeset.WriteSet{Items: []writeset.Item{{
			Table: r.table, Key: r.key, Op: writeset.OpInsert, Row: r.row,
		}}}
		if err := e.ApplyWriteSet(ws, v); err != nil {
			t.Fatal(err)
		}
		at(e)
	}
	// A delete: tombstoned rows must be absent from the snapshot.
	v++
	if err := e.ApplyWriteSet(&writeset.WriteSet{Items: []writeset.Item{{
		Table: "a_typed", Key: storage.EncodeKey(int64(3)), Op: writeset.OpDelete,
	}}}, v); err != nil {
		t.Fatal(err)
	}
	at(e)
	return e
}

func TestSnapshotRoundTrip(t *testing.T) {
	e := typedEngine(t)
	at := e.Version()
	img, err := SnapshotAt(e, at)
	if err != nil {
		t.Fatal(err)
	}
	e2, v, err := LoadSnapshot(img)
	if err != nil {
		t.Fatal(err)
	}
	if v != at {
		t.Fatalf("loaded version %d, want %d", v, at)
	}
	img2, err := SnapshotAt(e2, at)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(img, img2) {
		t.Fatal("snapshot not a fixed point across load/re-encode")
	}
	// Schemas and indexes survive.
	sch, ok := e2.Schema("a_typed")
	if !ok || len(sch.Indexes) != 1 || sch.Indexes[0].Name != "a_f" {
		t.Fatalf("schema lost: %+v", sch)
	}
	if e2.Version() != at {
		t.Fatalf("engine version %d, want %d", e2.Version(), at)
	}
}

// Snapshots at an older version must see through newer writes — the
// fuzzy-checkpoint visibility rule — as long as something holds that
// version at or above the horizon; once nothing does, the snapshot is
// refused.
func TestSnapshotAtOlderVersion(t *testing.T) {
	var hold *storage.Txn
	e := typedEngineWith(t, func(e *storage.Engine) {
		if e.Version() == 2 {
			hold = e.Begin()
		}
	})
	imgOld, err := SnapshotAt(e, 2)
	if err != nil {
		t.Fatal(err)
	}
	eOld, v, err := LoadSnapshot(imgOld)
	if err != nil {
		t.Fatal(err)
	}
	if v != 2 {
		t.Fatalf("version %d, want 2", v)
	}
	// Row 3 (inserted at version 3, deleted at 5) must be invisible;
	// rows 1-2 visible.
	img2, err := SnapshotAt(eOld, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(imgOld, img2) {
		t.Fatal("older-version snapshot not a fixed point")
	}
	hold.Abort()
	if _, err := SnapshotAt(e, 2); !errors.Is(err, storage.ErrPruned) {
		t.Fatalf("snapshot at 2 below the horizon %d: %v, want storage.ErrPruned", e.Horizon(), err)
	}
}

func TestLoadSnapshotRejectsDamage(t *testing.T) {
	e := typedEngine(t)
	img, err := SnapshotAt(e, e.Version())
	if err != nil {
		t.Fatal(err)
	}
	for _, pos := range []int{0, len(img) / 3, len(img) / 2, len(img) - 2} {
		bad := append([]byte(nil), img...)
		bad[pos] ^= 0xff
		if _, _, err := LoadSnapshot(bad); err == nil {
			t.Fatalf("flip at %d: corrupt snapshot loaded without error", pos)
		}
	}
	if _, _, err := LoadSnapshot(img[:len(img)/2]); err == nil {
		t.Fatal("truncated snapshot loaded without error")
	}
	if _, _, err := LoadSnapshot(nil); err == nil {
		t.Fatal("empty snapshot loaded without error")
	}
}

// FuzzCheckpointLoad drives the parser (CRC gate bypassed — the fuzzer
// would never forge checksums) with arbitrary bytes: it must error or
// succeed, never panic, and success must be a canonical fixed point,
// which is exactly the "never return corrupt state" property.
func FuzzCheckpointLoad(f *testing.F) {
	e := typedEngine(f)
	img, err := SnapshotAt(e, e.Version())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(img[:len(img)-4]) // parser input is the CRC-stripped body
	// The golden body and the same body with a padded varint: the
	// second decodes to the same state, so accepting it would break
	// the fixed point below.
	golden := goldenImage(f)
	body := golden[:len(golden)-4]
	f.Add(body)
	f.Add(nonMinimalVersion(body))
	empty, _ := SnapshotAt(storage.NewEngine(), 0)
	f.Add(empty[:len(empty)-4])
	f.Add([]byte(snapMagic))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, body []byte) {
		eng, at, err := parseSnapshot(body)
		if err != nil {
			return
		}
		re, err := SnapshotAt(eng, at)
		if err != nil {
			t.Fatalf("accepted snapshot does not re-encode: %v", err)
		}
		if !bytes.Equal(re[:len(re)-4], body) {
			t.Fatal("accepted snapshot is not canonical (re-encode differs)")
		}
	})
}

// TestCheckpointGoldenImage pins the checkpoint's byte layout, value
// tags included: the image carries rows in internal/writeset's layout,
// so a change to a tag or a length prefix there changes every image on
// disk and must not pass unnoticed. The golden opens with the snapMagic
// it was written under. Under an unchanged magic a difference is a
// layout change that needs snapMagic bumped, and the new image is not
// printed; under another magic the test prints the image to commit.
func TestCheckpointGoldenImage(t *testing.T) {
	e := typedEngine(t)
	img, err := SnapshotAt(e, e.Version())
	if err != nil {
		t.Fatal(err)
	}
	golden := goldenImage(t)
	switch {
	case bytes.Equal(img, golden):
	case bytes.HasPrefix(golden, []byte(snapMagic)):
		t.Fatalf("%s: layout changed: bump snapMagic (the golden was written under %s)", goldenPath, snapMagic)
	default:
		t.Fatalf("%s is not an image of %s; after review, write this image to it:\n%s",
			goldenPath, snapMagic, hex.EncodeToString(img))
	}
}

// nonMinimalVersion re-encodes the snapshot version of a CRC-stripped
// body with a redundant trailing zero byte: the same value, a second
// byte image.
func nonMinimalVersion(body []byte) []byte {
	v, n := binary.Uvarint(body[len(snapMagic):])
	out := append([]byte(nil), body[:len(snapMagic)]...)
	out = binary.AppendUvarint(out, v)
	out[len(out)-1] |= 0x80
	out = append(out, 0)
	return append(out, body[len(snapMagic)+n:]...)
}

// TestLoadSnapshotOwnsItsStrings: the decoder aliases the image, so a
// loader that kept those strings would change when the image buffer is
// reused. After LoadSnapshot the buffer is the caller's again.
func TestLoadSnapshotOwnsItsStrings(t *testing.T) {
	e := typedEngine(t)
	img, err := SnapshotAt(e, e.Version())
	if err != nil {
		t.Fatal(err)
	}
	saved := append([]byte(nil), img...)
	loaded, at, err := LoadSnapshot(img)
	if err != nil {
		t.Fatal(err)
	}
	for i := range img {
		img[i] = 'X'
	}
	again, err := SnapshotAt(loaded, at)
	if err != nil {
		t.Fatalf("loaded engine broken by overwriting the image: %v", err)
	}
	if !bytes.Equal(again, saved) {
		t.Fatal("loaded engine changed when the image buffer was overwritten: it kept aliased strings")
	}
}

// oldFormatImage is a CRC-valid image of an empty engine at version 0
// in the checkpoint format with pstore's own value tags, SCKP0001.
func oldFormatImage() []byte {
	img := append([]byte("SCKP0001"), 0, 0) // version 0, no tables
	return binary.LittleEndian.AppendUint32(img, crc32.ChecksumIEEE(img))
}

// TestOldFormatCheckpointRefused: an intact image in another format is
// not damage. LoadSnapshot names the format, and Open fails instead of
// bootstrapping a fresh engine over the only checkpoint there is.
func TestOldFormatCheckpointRefused(t *testing.T) {
	_, _, err := LoadSnapshot(oldFormatImage())
	if !errors.Is(err, ErrSnapshotFormat) || errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("LoadSnapshot(SCKP0001) err = %v, want ErrSnapshotFormat", err)
	}
	if !strings.Contains(err.Error(), "SCKP0001") || !strings.Contains(err.Error(), snapMagic) {
		t.Fatalf("error does not name both formats: %v", err)
	}

	dir := t.TempDir()
	path := filepath.Join(dir, "checkpoint-0000000000000000.ckpt")
	if err := os.WriteFile(path, oldFormatImage(), 0o644); err != nil {
		t.Fatal(err)
	}
	bootstrapped := false
	st, err := Open(dir, Options{Bootstrap: func(*storage.Engine) error {
		bootstrapped = true
		return nil
	}})
	if err == nil {
		st.Close()
		t.Fatal("Open recovered a directory whose only checkpoint is SCKP0001")
	}
	if !errors.Is(err, ErrSnapshotFormat) || bootstrapped {
		t.Fatalf("Open err = %v, bootstrapped = %v; want ErrSnapshotFormat and no bootstrap", err, bootstrapped)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, oldFormatImage()) {
		t.Fatalf("Open touched the old-format checkpoint (%v)", err)
	}
}

// TestFuzzyCheckpointMatchesQuiescentImage writes a checkpoint while a
// writer keeps updating and deleting the rows it scans, each write
// pruning the chain it extends, and requires the image to be
// byte-identical to that of an engine that applied the same writesets
// up to the checkpoint's version and then stopped.
func TestFuzzyCheckpointMatchesQuiescentImage(t *testing.T) {
	const rows = 2000
	schema := &storage.Schema{
		Table:   "kv",
		Columns: []storage.Column{{Name: "k", Type: storage.TInt}, {Name: "v", Type: storage.TInt}},
		Key:     []string{"k"},
	}
	// ws is the writeset at version v: a bulk load at 1, then an update of
	// one row and, every third version, a delete of another.
	ws := func(v uint64) *writeset.WriteSet {
		w := &writeset.WriteSet{}
		if v == 1 {
			for k := int64(0); k < rows; k++ {
				w.Items = append(w.Items, writeset.Item{Table: "kv", Key: storage.EncodeKey(k), Op: writeset.OpInsert, Row: []any{k, int64(0)}})
			}
			return w
		}
		k := int64(v*13) % rows
		w.Items = append(w.Items, writeset.Item{Table: "kv", Key: storage.EncodeKey(k), Op: writeset.OpUpdate, Row: []any{k, int64(v)}})
		if v%3 == 0 {
			w.Items = append(w.Items, writeset.Item{Table: "kv", Key: storage.EncodeKey(int64(v*7+1) % rows), Op: writeset.OpDelete})
		}
		return w
	}
	build := func(to uint64) *storage.Engine {
		e := storage.NewEngine()
		if err := e.CreateTable(schema); err != nil {
			t.Fatal(err)
		}
		for v := uint64(1); v <= to; v++ {
			if err := e.ApplyWriteSet(ws(v), v); err != nil {
				t.Fatal(err)
			}
		}
		return e
	}

	e := build(100)
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for v := e.Version() + 1; ; v++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := e.ApplyWriteSet(ws(v), v); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	snap := e.Begin()
	at := snap.Snapshot()
	var img bytes.Buffer
	_, err := WriteSnapshot(&img, e, snap, func() bool {
		time.Sleep(200 * time.Microsecond) // let writes land mid-scan
		return false
	})
	snap.Abort()
	close(stop)
	<-done
	if err != nil {
		t.Fatal(err)
	}
	if e.Version() <= at {
		t.Fatalf("no write landed during the checkpoint at %d", at)
	}
	want, err := SnapshotAt(build(at), at)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(img.Bytes(), want) {
		t.Fatalf("fuzzy image at %d (%d bytes) differs from the quiescent one (%d bytes)", at, img.Len(), len(want))
	}
}
