package pstore

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sconrep/internal/storage"
	"sconrep/internal/writeset"
)

// kvBootstrap creates the test table: k INT primary key, v TEXT, with
// a secondary index so restore paths cover index rebuild.
func kvBootstrap(e *storage.Engine) error {
	return e.CreateTable(&storage.Schema{
		Table: "kv",
		Columns: []storage.Column{
			{Name: "k", Type: storage.TInt},
			{Name: "v", Type: storage.TString},
		},
		Key:     []string{"k"},
		Indexes: []storage.IndexDef{{Name: "kv_v", Column: "v"}},
	})
}

func kvWS(version uint64) *writeset.WriteSet {
	k := int64(version % 64)
	return &writeset.WriteSet{Items: []writeset.Item{{
		Table: "kv",
		Key:   storage.EncodeKey(k),
		Op:    writeset.OpUpdate,
		Row:   []any{k, fmt.Sprintf("val-%d", version)},
	}}}
}

// applyAndLog commits versions [from, to] on the store's engine and
// logs them, one writeset per version.
func applyAndLog(t *testing.T, st *Store, from, to uint64) {
	t.Helper()
	for v := from; v <= to; v++ {
		ws := kvWS(v)
		if err := st.Engine().ApplyWriteSet(ws, v); err != nil {
			t.Fatalf("apply %d: %v", v, err)
		}
		if err := st.LogApplied([]*writeset.WriteSet{ws}, v); err != nil {
			t.Fatalf("log %d: %v", v, err)
		}
	}
}

// referenceEngine replays versions [1, to] on a fresh engine.
func referenceEngine(t *testing.T, to uint64) *storage.Engine {
	t.Helper()
	e := storage.NewEngine()
	if err := kvBootstrap(e); err != nil {
		t.Fatal(err)
	}
	for v := uint64(1); v <= to; v++ {
		if err := e.ApplyWriteSet(kvWS(v), v); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

func mustEqualAt(t *testing.T, a, b *storage.Engine, at uint64) {
	t.Helper()
	sa, err := SnapshotAt(a, at)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := SnapshotAt(b, at)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sa, sb) {
		t.Fatalf("engine states differ at version %d (%d vs %d bytes)", at, len(sa), len(sb))
	}
}

func openKV(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	if opts.Bootstrap == nil {
		opts.Bootstrap = kvBootstrap
	}
	st, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestRecoverFromWALOnly(t *testing.T) {
	dir := t.TempDir()
	st := openKV(t, dir, Options{})
	applyAndLog(t, st, 1, 10)
	st.Abandon()

	st2 := openKV(t, dir, Options{})
	defer st2.Close()
	if v := st2.Engine().Version(); v != 10 {
		t.Fatalf("recovered version %d, want 10", v)
	}
	mustEqualAt(t, st2.Engine(), referenceEngine(t, 10), 10)
	if s := st2.Stats(); s.RecoveredVersion != 10 || s.CheckpointVersion != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestRecoverFromCheckpointPlusWAL(t *testing.T) {
	dir := t.TempDir()
	st := openKV(t, dir, Options{})
	applyAndLog(t, st, 1, 50)
	if err := st.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	applyAndLog(t, st, 51, 60)
	st.Abandon()

	st2 := openKV(t, dir, Options{})
	defer st2.Close()
	if v := st2.Engine().Version(); v != 60 {
		t.Fatalf("recovered version %d, want 60", v)
	}
	if s := st2.Stats(); s.CheckpointVersion != 50 {
		t.Fatalf("recovered from checkpoint %d, want 50", s.CheckpointVersion)
	}
	mustEqualAt(t, st2.Engine(), referenceEngine(t, 60), 60)
}

func TestTornWALTailDiscarded(t *testing.T) {
	dir := t.TempDir()
	st := openKV(t, dir, Options{})
	applyAndLog(t, st, 1, 20)
	st.Abandon()

	// Tear the active segment's tail mid-record.
	seg := newestSegment(t, dir)
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, fi.Size()-7); err != nil {
		t.Fatal(err)
	}

	st2 := openKV(t, dir, Options{})
	defer st2.Close()
	if v := st2.Engine().Version(); v != 19 {
		t.Fatalf("recovered version %d, want 19 (torn record discarded)", v)
	}
	mustEqualAt(t, st2.Engine(), referenceEngine(t, 19), 19)
}

// TestLogAppliedRefusesRunAboveTail: the replica logs inside its apply
// window, so runs arrive in version order. A run that starts above the
// log's tail would leave a gap; it is refused, and the log stays as it
// was — the next in-order run still appends, and recovery reaches it.
func TestLogAppliedRefusesRunAboveTail(t *testing.T) {
	dir := t.TempDir()
	st := openKV(t, dir, Options{})
	applyAndLog(t, st, 1, 2)
	var runs [][]*writeset.WriteSet
	for v := uint64(3); v <= 6; v++ {
		ws := kvWS(v)
		if err := st.Engine().ApplyWriteSet(ws, v); err != nil {
			t.Fatal(err)
		}
		runs = append(runs, []*writeset.WriteSet{ws})
	}
	before := st.Stats()
	if err := st.LogApplied(runs[2], 5); !errors.Is(err, storage.ErrBadVersion) {
		t.Fatalf("run above the tail: err = %v, want ErrBadVersion", err)
	}
	if after := st.Stats(); after.LoggedVersion != 2 || after.WALBytes != before.WALBytes {
		t.Fatalf("refused run moved the log: logged %d, %d WAL bytes; want 2, %d",
			after.LoggedVersion, after.WALBytes, before.WALBytes)
	}
	// In order again — a run overlapping the tail appends only its new
	// part.
	for _, run := range []struct {
		wss   []*writeset.WriteSet
		start uint64
	}{{runs[0], 3}, {[]*writeset.WriteSet{runs[0][0], runs[1][0]}, 3}, {runs[2], 5}, {runs[3], 6}} {
		if err := st.LogApplied(run.wss, run.start); err != nil {
			t.Fatalf("log at %d: %v", run.start, err)
		}
	}
	if v := st.Stats().LoggedVersion; v != 6 {
		t.Fatalf("logged version %d, want 6", v)
	}
	st.Abandon()

	st2 := openKV(t, dir, Options{})
	defer st2.Close()
	if v := st2.Engine().Version(); v != 6 {
		t.Fatalf("recovered version %d, want 6", v)
	}
	mustEqualAt(t, st2.Engine(), referenceEngine(t, 6), 6)
}

func TestStartAtAlignsLogAfterBulkLoad(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{}) // no bootstrap: fresh engine
	if err != nil {
		t.Fatal(err)
	}
	// Bulk-load outside the log (cluster.LoadData path).
	if err := kvBootstrap(st.Engine()); err != nil {
		t.Fatal(err)
	}
	for v := uint64(1); v <= 5; v++ {
		if err := st.Engine().ApplyWriteSet(kvWS(v), v); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.StartAt(5); err != nil {
		t.Fatal(err)
	}
	applyAndLog(t, st, 6, 9)
	st.Abandon()

	// Recovery re-runs the deterministic load as Bootstrap, then
	// replays the logged suffix.
	st2, err := Open(dir, Options{Bootstrap: func(e *storage.Engine) error {
		if err := kvBootstrap(e); err != nil {
			return err
		}
		for v := uint64(1); v <= 5; v++ {
			if err := e.ApplyWriteSet(kvWS(v), v); err != nil {
				return err
			}
		}
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if v := st2.Engine().Version(); v != 9 {
		t.Fatalf("recovered version %d, want 9", v)
	}
	mustEqualAt(t, st2.Engine(), referenceEngine(t, 9), 9)
}

func TestAutoCheckpointPrunesSegments(t *testing.T) {
	dir := t.TempDir()
	st := openKV(t, dir, Options{CheckpointEvery: 8})
	applyAndLog(t, st, 1, 100)
	deadline := time.Now().Add(5 * time.Second)
	for st.Stats().CheckpointVersion < 90 && time.Now().Before(deadline) {
		applyAndLog(t, st, st.Engine().Version()+1, st.Engine().Version()+1)
		time.Sleep(time.Millisecond)
	}
	if err := st.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	final := st.Engine().Version()
	if cv := st.Stats().CheckpointVersion; cv != final {
		t.Fatalf("checkpoint version %d, want %d", cv, final)
	}
	if n := st.Stats().CheckpointCount; n < 2 {
		t.Fatalf("only %d checkpoints for 100+ versions at interval 8", n)
	}
	st.Close()

	ckpts, segs := listDir(t, dir)
	if len(ckpts) > 2 {
		t.Fatalf("%d checkpoints retained, want <= 2 (%v)", len(ckpts), ckpts)
	}
	if len(segs) > 2 {
		t.Fatalf("%d segments retained after full checkpoint, want <= 2 (%v)", len(segs), segs)
	}

	st2 := openKV(t, dir, Options{})
	defer st2.Close()
	if v := st2.Engine().Version(); v != final {
		t.Fatalf("recovered version %d, want %d", v, final)
	}
	mustEqualAt(t, st2.Engine(), referenceEngine(t, final), final)
}

// TestCheckpointRecoveryEdgeCases is the table-driven edge-case suite
// from the issue: each case crashes a store in an awkward state and
// asserts recovery lands on exactly the right version and state.
func TestCheckpointRecoveryEdgeCases(t *testing.T) {
	cases := []struct {
		name string
		// run exercises a store lifecycle in dir and returns the
		// version recovery must land on.
		run func(t *testing.T, dir string) uint64
	}{
		{
			// A checkpoint of a schema-only engine must capture the
			// schemas: recovery without Bootstrap must still serve.
			name: "checkpoint at version 0",
			run: func(t *testing.T, dir string) uint64 {
				st := openKV(t, dir, Options{})
				if err := st.CheckpointNow(); err != nil {
					t.Fatal(err)
				}
				st.Abandon()
				st2, err := Open(dir, Options{}) // no bootstrap on purpose
				if err != nil {
					t.Fatal(err)
				}
				if _, ok := st2.Engine().Schema("kv"); !ok {
					t.Fatal("schema lost across checkpoint at version 0")
				}
				st2.Abandon()
				return 0
			},
		},
		{
			// The fuzzy part: applies keep landing while the snapshot
			// is written, and the checkpoint must still be the exact
			// state at its version.
			name: "checkpoint concurrent with in-flight applies",
			run: func(t *testing.T, dir string) uint64 {
				st := openKV(t, dir, Options{})
				applyAndLog(t, st, 1, 64)
				done := make(chan struct{})
				go func() {
					defer close(done)
					applyAndLog(t, st, 65, 512)
				}()
				if err := st.CheckpointNow(); err != nil {
					t.Fatal(err)
				}
				<-done
				ckptV := st.Stats().CheckpointVersion
				if ckptV < 64 {
					t.Fatalf("checkpoint version %d below pre-checkpoint watermark", ckptV)
				}
				// The on-disk image must equal the reference state at
				// exactly the checkpoint's version.
				data, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf(ckptPattern, ckptV)))
				if err != nil {
					t.Fatal(err)
				}
				eng, v, err := LoadSnapshot(data)
				if err != nil {
					t.Fatal(err)
				}
				if v != ckptV {
					t.Fatalf("snapshot version %d, want %d", v, ckptV)
				}
				mustEqualAt(t, eng, referenceEngine(t, ckptV), ckptV)
				st.Abandon()
				return 512
			},
		},
		{
			// Crash, begin recovery, crash again before any progress,
			// recover for real: the second recovery must tolerate the
			// first one's artifacts (fresh empty segment, stale tmp).
			name: "two crashes during one recovery",
			run: func(t *testing.T, dir string) uint64 {
				st := openKV(t, dir, Options{})
				applyAndLog(t, st, 1, 30)
				if err := st.CheckpointNow(); err != nil {
					t.Fatal(err)
				}
				applyAndLog(t, st, 31, 40)
				st.Abandon() // crash 1
				mid, err := Open(dir, Options{Bootstrap: kvBootstrap})
				if err != nil {
					t.Fatal(err)
				}
				if v := mid.Engine().Version(); v != 40 {
					t.Fatalf("first recovery at %d, want 40", v)
				}
				mid.Abandon() // crash 2, zero progress since recovery
				return 40
			},
		},
		{
			// The newest checkpoint is damaged on disk: recovery must
			// fall back to its predecessor and the contiguous WAL
			// suffix reachable from there — never load corrupt state.
			name: "newest checkpoint corrupt falls back",
			run: func(t *testing.T, dir string) uint64 {
				st := openKV(t, dir, Options{})
				applyAndLog(t, st, 1, 20)
				if err := st.CheckpointNow(); err != nil {
					t.Fatal(err)
				}
				applyAndLog(t, st, 21, 35)
				if err := st.CheckpointNow(); err != nil {
					t.Fatal(err)
				}
				applyAndLog(t, st, 36, 40)
				st.Abandon()
				// Flip a byte in the newest checkpoint.
				path := filepath.Join(dir, fmt.Sprintf(ckptPattern, 35))
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				data[len(data)/2] ^= 0xff
				if err := os.WriteFile(path, data, 0o644); err != nil {
					t.Fatal(err)
				}
				// Fallback lands on checkpoint 20; the segments that
				// covered (20, 35] were pruned by checkpoint 35, so
				// replay stops at the gap and certifier backfill owns
				// the rest. 20 is the honest recovery floor.
				return 20
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			want := tc.run(t, dir)
			st, err := Open(dir, Options{Bootstrap: kvBootstrap})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			if v := st.Engine().Version(); v != want {
				t.Fatalf("recovered version %d, want %d", v, want)
			}
			mustEqualAt(t, st.Engine(), referenceEngine(t, want), want)
		})
	}
}

func TestAbandonMidCheckpointLeavesRecoverableState(t *testing.T) {
	dir := t.TempDir()
	st := openKV(t, dir, Options{})
	applyAndLog(t, st, 1, 2000)
	errc := make(chan error, 1)
	go func() { errc <- st.CheckpointNow() }()
	st.Abandon() // kill -9 while (possibly) mid-checkpoint
	<-errc

	st2 := openKV(t, dir, Options{})
	defer st2.Close()
	if v := st2.Engine().Version(); v != 2000 {
		t.Fatalf("recovered version %d, want 2000", v)
	}
	mustEqualAt(t, st2.Engine(), referenceEngine(t, 2000), 2000)
	// Stale tmp files from the aborted write must be gone.
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".tmp") {
			t.Fatalf("stale tmp %s survived reopen", e.Name())
		}
	}
}

func newestSegment(t *testing.T, dir string) string {
	t.Helper()
	_, segs := listDir(t, dir)
	if len(segs) == 0 {
		t.Fatal("no wal segments")
	}
	best := segs[len(segs)-1]
	return filepath.Join(dir, fmt.Sprintf(segPattern, best))
}

func listDir(t *testing.T, dir string) (ckpts, segs []uint64) {
	t.Helper()
	s := &Store{dir: dir}
	ckpts, segs, err := s.scanDir()
	if err != nil {
		t.Fatal(err)
	}
	return ckpts, segs
}
