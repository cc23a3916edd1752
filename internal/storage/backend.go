package storage

import "sconrep/internal/writeset"

// Backend is the pluggable storage layer behind a replica: an MVCC
// engine plus whatever durability the implementation provides. The
// replica applies refresh and local commits to Engine() exactly as
// before, and additionally reports every applied run to LogApplied so
// a durable backend can persist it.
//
// Two implementations exist: MemBackend wraps the in-memory engine
// with no-op durability (the paper's configuration — replicas run with
// log forcing disabled and rebuild from the certifier's history), and
// pstore.Store logs applied writesets to a WAL and takes asynchronous
// fuzzy checkpoints so a restarted replica backfills only the history
// suffix.
type Backend interface {
	// Engine returns the MVCC engine this backend persists. It is
	// fixed for the lifetime of the backend.
	Engine() *Engine

	// LogApplied records that wss[i] was applied at startVersion+i.
	// The replica calls it from inside its apply window, so runs arrive
	// in version order: each starts at or below the log's tail + 1 (a
	// run reaching below the tail was already logged, in part or in
	// whole). A run starting above it would leave a gap and is refused
	// with an error, which the replica treats as state divergence.
	// Durable backends append without forcing: losing the tail is safe
	// because the certifier backfills it on recovery. A backend that can
	// no longer write drops runs without error — a deeper recovery, not
	// divergence.
	LogApplied(wss []*writeset.WriteSet, startVersion uint64) error

	// Close releases the backend's resources gracefully.
	Close() error
}

// MemBackend is the no-durability backend: the engine alone.
type MemBackend struct {
	Eng *Engine
}

func (m MemBackend) Engine() *Engine { return m.Eng }

func (m MemBackend) LogApplied([]*writeset.WriteSet, uint64) error { return nil }

func (m MemBackend) Close() error { return nil }
