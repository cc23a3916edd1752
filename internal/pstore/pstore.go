// Package pstore is the persistent storage backend: the in-memory
// MVCC engine fronted by a replica-side WAL of applied writesets plus
// asynchronous fuzzy checkpoints.
//
// Durability model (paper §IV, Tashkent): the certifier is the
// durability authority, so the replica log is written without forcing
// and checkpoints are taken without stalling the apply pipeline. A
// crash may lose the WAL tail or a half-written checkpoint; recovery
// loads the newest checkpoint that verifies, replays the contiguous
// WAL suffix above it, and leaves the rest to certifier backfill —
// the replica resubscribes from the recovered Vlocal and receives
// exactly the missing history suffix.
//
// On-disk layout (one directory per replica):
//
//	checkpoint-<version>.ckpt  snapshot image (see snapshot.go)
//	wal-<base>.log             records with versions > base, in order
//	*.tmp                      in-flight checkpoint; ignored and
//	                           removed on open
//
// Both file kinds carry strings and rows in internal/writeset's binary
// layout, the one the certify request and the refresh stream use; the
// package has no codec of its own. A checkpoint or WAL record that is
// intact but in another build's format fails Open loudly
// (ErrSnapshotFormat, wal.ErrFormat) instead of being recovered past.
//
// Segments rotate at every checkpoint and are pruned once wholly
// covered by one, so WAL space is bounded by the checkpoint interval.
package pstore

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"sconrep/internal/storage"
	"sconrep/internal/wal"
	"sconrep/internal/writeset"
)

// Options configures a Store.
type Options struct {
	// CheckpointEvery is the number of logged versions between
	// automatic fuzzy checkpoints. 0 means the default (1024).
	CheckpointEvery uint64
	// Bootstrap populates a fresh engine (schema + initial data) when
	// no checkpoint exists. It must be deterministic: recovery re-runs
	// it and expects the same engine version the original run had when
	// StartAt was called. A cluster's restart passes its LoadData
	// function.
	Bootstrap func(*storage.Engine) error
	// Clock is injectable for the seeded tests; nil means time.Now.
	// It feeds stats only — no durability decision depends on it.
	Clock func() time.Time
}

// Stats is a point-in-time snapshot of the store's health counters,
// exported as gauges by the cluster observability layer.
type Stats struct {
	CheckpointVersion  uint64
	CheckpointCount    uint64
	LastCheckpointAt   time.Time
	LastCheckpointTook time.Duration
	WALBytes           int64
	RecoveredVersion   uint64
	RecoveryTook       time.Duration
	// LoggedVersion is the contiguous durable log tail: every version
	// up to it is either in a checkpoint or appended to the WAL (not
	// forced). Tests wait on it before simulating a crash whose
	// recovery must be exact.
	LoggedVersion uint64
	WALBroken     bool
}

// Store is a durable storage.Backend. All methods are safe for
// concurrent use.
type Store struct {
	dir   string
	opts  Options
	clock func() time.Time
	eng   *storage.Engine

	mu       sync.Mutex
	ckptIdle *sync.Cond // broadcast when ckptBusy falls
	// log appends to the current WAL segment.
	// guarded by mu
	log *wal.Log
	// segBase names the current segment: its records are > segBase.
	// guarded by mu
	segBase uint64
	// next is the version the next appended record must carry.
	// guarded by mu
	next uint64
	// ckptV is the newest durable checkpoint version.
	// guarded by mu
	ckptV uint64
	// ckptBusy is true while a checkpoint is being written.
	// guarded by mu
	ckptBusy bool
	// walBroken is set when an append fails; logging degrades to
	// dropping records (recovery backfills) until the next checkpoint
	// rotates a fresh segment.
	// guarded by mu
	walBroken bool
	// closed stops appends and checkpoint commits.
	// guarded by mu
	closed bool
	// walBytes is the total size of live WAL segments.
	// guarded by mu
	walBytes int64
	// retained maps live segment base → file size, current excluded.
	// guarded by mu
	retained map[uint64]int64

	wg sync.WaitGroup

	// stats, guarded by mu
	ckptCount   uint64
	lastCkptAt  time.Time
	lastCkptDur time.Duration
	recoveredV  uint64
	recoveryDur time.Duration
}

const (
	defaultCheckpointEvery = 1024
	// keepCheckpoints is how many checkpoint files survive a prune,
	// newest first: the latest plus one fallback in case the latest is
	// damaged on disk.
	keepCheckpoints = 2
	ckptPattern     = "checkpoint-%016d.ckpt"
	segPattern      = "wal-%016d.log"
)

// Open opens (creating if needed) the store rooted at dir and runs
// recovery: load the newest checkpoint that verifies (falling back to
// older ones, then to Options.Bootstrap on a fresh or checkpoint-less
// directory), replay the contiguous WAL suffix, and discard any torn
// tail. The returned store's engine is ready to serve; its version is
// the recovered Vlocal the replica resubscribes from.
func Open(dir string, opts Options) (*Store, error) {
	if opts.CheckpointEvery == 0 {
		opts.CheckpointEvery = defaultCheckpointEvery
	}
	s := &Store{
		dir:      dir,
		opts:     opts,
		clock:    opts.Clock,
		retained: make(map[uint64]int64),
	}
	if s.clock == nil {
		s.clock = time.Now
	}
	s.ckptIdle = sync.NewCond(&s.mu)
	began := s.clock()

	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("pstore: %w", err)
	}
	ckpts, segs, err := s.scanDir()
	if err != nil {
		return nil, err
	}

	// Newest verifying checkpoint wins; a damaged one falls back to
	// its predecessor (keepCheckpoints retains one for exactly this).
	// An intact image in another format is not damage: it was written
	// by another build, and recovering past it would discard its state.
	var firstErr error
	for i := len(ckpts) - 1; i >= 0 && s.eng == nil; i-- {
		path := filepath.Join(dir, fmt.Sprintf(ckptPattern, ckpts[i]))
		data, err := os.ReadFile(path)
		if err == nil {
			var eng *storage.Engine
			var v uint64
			if eng, v, err = LoadSnapshot(data); err == nil {
				s.eng, s.ckptV = eng, v
				break
			}
			if errors.Is(err, ErrSnapshotFormat) {
				return nil, fmt.Errorf("pstore: %s: %w", path, err)
			}
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	if s.eng == nil {
		if len(ckpts) > 0 {
			return nil, fmt.Errorf("pstore: no checkpoint verifies: %w", firstErr)
		}
		s.eng = storage.NewEngine()
		if opts.Bootstrap != nil {
			if err := opts.Bootstrap(s.eng); err != nil {
				return nil, fmt.Errorf("pstore: bootstrap: %w", err)
			}
		}
	}

	// Replay the contiguous WAL suffix above the recovered state. A
	// gap, a torn tail, or mid-segment corruption ends replay — the
	// replica log is not the durability authority, so whatever is
	// missing above the stop point is refetched from the certifier.
	expect := s.eng.Version() + 1
replay:
	for _, base := range segs {
		_, err := wal.ReplayFileN(filepath.Join(dir, fmt.Sprintf(segPattern, base)), func(rec *wal.Record) error {
			if rec.Version != expect {
				if rec.Version < expect {
					return nil // already covered by checkpoint or earlier segment
				}
				return errStopReplay
			}
			if err := s.eng.ApplyWriteSet(&rec.WriteSet, rec.Version); err != nil {
				return fmt.Errorf("pstore: replay apply at %d: %w", rec.Version, err)
			}
			expect++
			return nil
		})
		switch {
		case err == nil:
		case errors.Is(err, errStopReplay), errors.Is(err, wal.ErrCorrupt):
			break replay
		default:
			return nil, err
		}
	}

	s.recoveredV = s.eng.Version()
	s.recoveryDur = s.clock().Sub(began)
	s.next = s.recoveredV + 1

	// Start a fresh segment; old ones stay until a checkpoint covers
	// them. Accounting for retained segments feeds the WAL-size gauge.
	for _, base := range segs {
		if fi, err := os.Stat(filepath.Join(dir, fmt.Sprintf(segPattern, base))); err == nil {
			s.retained[base] = fi.Size()
			s.walBytes += fi.Size()
		}
	}
	if err := s.rotateLocked(s.recoveredV); err != nil {
		return nil, err
	}
	s.pruneLocked()
	return s, nil
}

var errStopReplay = fmt.Errorf("pstore: stop replay")

// scanDir lists checkpoint versions and segment bases, both ascending,
// and removes stale temporary files.
func (s *Store) scanDir() (ckpts, segs []uint64, err error) {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, nil, fmt.Errorf("pstore: %w", err)
	}
	for _, ent := range ents {
		name := ent.Name()
		if v, ok := parseSeq(name, "checkpoint-", ".ckpt"); ok {
			ckpts = append(ckpts, v)
		} else if v, ok := parseSeq(name, "wal-", ".log"); ok {
			segs = append(segs, v)
		} else if filepath.Ext(name) == ".tmp" {
			_ = os.Remove(filepath.Join(s.dir, name))
		}
	}
	sort.Slice(ckpts, func(i, j int) bool { return ckpts[i] < ckpts[j] })
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	return ckpts, segs, nil
}

func parseSeq(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	mid := name[len(prefix) : len(name)-len(suffix)]
	if len(mid) != 16 {
		return 0, false
	}
	v, err := strconv.ParseUint(mid, 10, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// Engine returns the recovered MVCC engine.
func (s *Store) Engine() *storage.Engine { return s.eng }

// StartAt aligns the log with an engine that was bulk-loaded after
// Open (cluster.LoadData): records follow from v+1, and the current
// (necessarily empty) segment is renamed to base v. The load itself is
// not logged — recovery re-runs Bootstrap to rebuild it.
func (s *Store) StartAt(v uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.next != s.segBase+1 {
		return fmt.Errorf("pstore: StartAt(%d) after records were logged", v)
	}
	if v+1 == s.next {
		return nil
	}
	if s.log != nil {
		_ = s.log.Close()
		s.log = nil
	}
	_ = os.Remove(filepath.Join(s.dir, fmt.Sprintf(segPattern, s.segBase)))
	s.next = v + 1
	return s.rotateLocked(v)
}

// LogApplied implements storage.Backend: append writesets applied at
// startVersion+i. A run starting above the contiguous log tail + 1 is
// refused and leaves the log unchanged; the part of a run at or below
// the tail is skipped. Append failures degrade to dropping records
// rather than failing the apply pipeline: the WAL is an optimization
// over certifier backfill, not the durability authority.
func (s *Store) LogApplied(wss []*writeset.WriteSet, startVersion uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.walBroken || len(wss) == 0 {
		return nil
	}
	if startVersion+uint64(len(wss)) <= s.next {
		return nil // wholly stale re-delivery
	}
	if startVersion < s.next {
		wss = wss[s.next-startVersion:]
		startVersion = s.next
	}
	if startVersion > s.next {
		return fmt.Errorf("pstore: %w: log tail at %d, run starts at %d", storage.ErrBadVersion, s.next-1, startVersion)
	}
	for _, ws := range wss {
		rec := wal.Record{Version: s.next, WriteSet: *ws}
		if err := s.log.Append(&rec); err != nil {
			// Degrade: stop logging; the segment rotation at the next
			// checkpoint heals the log.
			s.walBroken = true
			break
		}
		s.next++
	}
	s.maybeCheckpointLocked()
	return nil
}

// maybeCheckpointLocked starts an async fuzzy checkpoint when enough
// versions accumulated since the last one. Single-flight.
func (s *Store) maybeCheckpointLocked() {
	if s.ckptBusy || s.closed || s.next-1 < s.ckptV+s.opts.CheckpointEvery {
		return
	}
	s.ckptBusy = true
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		_ = s.checkpoint()
	}()
}

// CheckpointNow takes a fuzzy checkpoint synchronously, waiting out
// any checkpoint already in flight.
func (s *Store) CheckpointNow() error {
	s.mu.Lock()
	for s.ckptBusy && !s.closed {
		s.ckptIdle.Wait()
	}
	if s.closed {
		s.mu.Unlock()
		return fmt.Errorf("pstore: store closed")
	}
	s.ckptBusy = true
	s.mu.Unlock()
	return s.checkpoint()
}

// checkpoint writes the snapshot to a temp file, fsyncs, renames it
// into place, then rotates the WAL segment and prunes what the new
// checkpoint covers. Caller has set ckptBusy; cleared here.
func (s *Store) checkpoint() error {
	began := s.clock()
	// The snapshot holds the horizon at or below at from the moment at
	// is chosen until the image is written.
	snap := s.eng.Begin()
	at := snap.Snapshot()
	err := s.writeCheckpointFile(snap)
	snap.Abort()

	s.mu.Lock()
	defer func() {
		s.ckptBusy = false
		s.ckptIdle.Broadcast()
		s.mu.Unlock()
	}()
	if err == nil && s.closed {
		err = fmt.Errorf("pstore: store closed during checkpoint")
	}
	if err != nil {
		return err
	}
	s.ckptV = at
	s.ckptCount++
	s.lastCkptAt = s.clock()
	s.lastCkptDur = s.lastCkptAt.Sub(began)
	// Rotate so records after the checkpoint land in a fresh segment;
	// this is also what heals a broken WAL. If appends were being
	// dropped, skip the drop window entirely — those versions are
	// gone from the log, and the new segment must restart contiguous
	// with what replay can actually reach.
	if s.walBroken {
		s.next = s.eng.Version() + 1
		s.walBroken = false
	}
	if err := s.rotateLocked(s.next - 1); err != nil {
		return err
	}
	s.pruneLocked()
	return nil
}

// writeCheckpointFile writes checkpoint-<at>.ckpt, the image at snap's
// snapshot at, atomically (tmp + fsync + rename + dir fsync).
func (s *Store) writeCheckpointFile(snap *storage.Txn) error {
	final := filepath.Join(s.dir, fmt.Sprintf(ckptPattern, snap.Snapshot()))
	tmp := final + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("pstore: checkpoint: %w", err)
	}
	abort := func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.closed
	}
	_, werr := WriteSnapshot(f, s.eng, snap, abort)
	if werr == nil {
		werr = f.Sync()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("pstore: checkpoint: %w", werr)
	}
	if err := os.Rename(tmp, final); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("pstore: checkpoint: %w", err)
	}
	syncDir(s.dir)
	return nil
}

// rotateLocked closes the current segment and opens wal-<base>.log.
// An existing file with that base can only be an empty leftover from
// an interrupted recovery (anything it validly contained was just
// replayed into the engine), so truncating is safe.
func (s *Store) rotateLocked(base uint64) error {
	if s.log != nil {
		_ = s.log.Close()
		if sz, err := segSize(filepath.Join(s.dir, fmt.Sprintf(segPattern, s.segBase))); err == nil {
			s.retained[s.segBase] = sz
		}
	}
	path := filepath.Join(s.dir, fmt.Sprintf(segPattern, base))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		s.log = nil
		s.walBroken = true
		return fmt.Errorf("pstore: rotate: %w", err)
	}
	if sz, ok := s.retained[base]; ok {
		s.walBytes -= sz // truncated an empty recovery leftover with this base
		delete(s.retained, base)
	}
	s.segBase = base
	s.log = wal.NewWriter(&countingWriter{f: f, n: &s.walBytes})
	return nil
}

// pruneLocked removes checkpoints beyond keepCheckpoints and segments
// wholly covered by the newest checkpoint.
func (s *Store) pruneLocked() {
	ckpts, segs, err := s.scanDir()
	if err != nil {
		return
	}
	for i := 0; i+keepCheckpoints < len(ckpts); i++ {
		_ = os.Remove(filepath.Join(s.dir, fmt.Sprintf(ckptPattern, ckpts[i])))
	}
	// Segment segs[i] holds versions (segs[i], segs[i+1]]; it is dead
	// once the next segment's base is at or below the checkpoint.
	for i := 0; i+1 < len(segs); i++ {
		if segs[i+1] <= s.ckptV && segs[i] != s.segBase {
			path := filepath.Join(s.dir, fmt.Sprintf(segPattern, segs[i]))
			if sz, ok := s.retained[segs[i]]; ok {
				s.walBytes -= sz
				delete(s.retained, segs[i])
			}
			_ = os.Remove(path)
		}
	}
}

// Close shuts the store down gracefully: waits out an in-flight
// checkpoint, then closes the WAL segment.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.ckptIdle.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.log != nil {
		return s.log.Close()
	}
	return nil
}

// Abandon simulates kill -9: stop everything immediately, wait for
// nothing. An in-flight checkpoint aborts mid-write (leaving a .tmp
// the next Open discards) and the WAL loses whatever was never
// written — exactly the artifacts crash recovery must tolerate.
func (s *Store) Abandon() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	s.ckptIdle.Broadcast()
	if s.log != nil {
		_ = s.log.Close() // in-flight append errors are swallowed by the broken-WAL path
	}
}

// Stats returns current health counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		CheckpointVersion:  s.ckptV,
		CheckpointCount:    s.ckptCount,
		LastCheckpointAt:   s.lastCkptAt,
		LastCheckpointTook: s.lastCkptDur,
		WALBytes:           s.walBytes,
		RecoveredVersion:   s.recoveredV,
		RecoveryTook:       s.recoveryDur,
		LoggedVersion:      s.next - 1,
		WALBroken:          s.walBroken,
	}
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

func segSize(path string) (int64, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
}

// countingWriter adds written byte counts to the store's walBytes
// total. Every write happens under the store mutex (appends hold it;
// rotation and close hold it), so the bare pointer is safe.
type countingWriter struct {
	f *os.File
	n *int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.f.Write(p)
	*c.n += int64(n)
	return n, err
}

func (c *countingWriter) Close() error { return c.f.Close() }

var _ storage.Backend = (*Store)(nil)
