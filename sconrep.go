// Package sconrep is a replicated in-memory SQL database that provides
// strong consistency for a bargain — a faithful implementation of
// Krikellas, Elnikety, Vagena & Hodson, "Strongly consistent
// replication for a bargain" (ICDE 2010).
//
// A cluster of multi-master replicas executes snapshot-isolated SQL
// transactions; a certifier orders and certifies update transactions
// and lazily propagates their writesets; a load balancer routes
// transactions and — this is the paper's contribution — delays each
// transaction's start just long enough for its replica to be current,
// giving clients the semantics of a single centralized database:
//
//	ESC (Eager)   — classic eager strong consistency: commits wait for
//	                every replica (slow, the baseline to beat).
//	CSC (Coarse)  — lazy coarse-grained strong consistency: begin waits
//	                until the replica has applied ALL committed updates.
//	FSC (Fine)    — lazy fine-grained strong consistency: begin waits
//	                only for the tables the transaction touches.
//	SC  (Session) — session consistency: weaker; each client only sees
//	                its own updates (the performance upper bound).
//
// Quick start:
//
//	db, _ := sconrep.Open(sconrep.Config{Replicas: 3, Mode: sconrep.Fine})
//	defer db.Close()
//	db.Bootstrap(func(b *sconrep.Boot) error {
//		b.Exec(`CREATE TABLE accounts (id INT PRIMARY KEY, balance FLOAT)`)
//		b.Exec(`INSERT INTO accounts VALUES (1, 100.0), (2, 50.0)`)
//		return b.Err()
//	})
//	s := db.Session()
//	tx, _ := s.Begin("transfer")
//	tx.Exec(`UPDATE accounts SET balance = balance - 10 WHERE id = 1`)
//	tx.Exec(`UPDATE accounts SET balance = balance + 10 WHERE id = 2`)
//	tx.Commit()
package sconrep

import (
	"errors"
	"fmt"

	"sconrep/internal/cluster"
	"sconrep/internal/core"
	"sconrep/internal/history"
	"sconrep/internal/latency"
	"sconrep/internal/replica"
	"sconrep/internal/sql"
	"sconrep/internal/storage"
	"sconrep/internal/wal"
	"sconrep/internal/wire"
)

// Mode selects the consistency configuration.
type Mode int

// The four configurations of the paper (§III, §IV).
const (
	Eager Mode = iota
	Coarse
	Fine
	Session
)

// String returns the paper-style label (ESC/CSC/FSC/SC).
func (m Mode) String() string { return m.internal().String() }

// Strong reports whether the mode guarantees strong consistency.
func (m Mode) Strong() bool { return m.internal().Strong() }

func (m Mode) internal() core.Mode {
	switch m {
	case Eager:
		return core.Eager
	case Coarse:
		return core.Coarse
	case Fine:
		return core.Fine
	default:
		return core.Session
	}
}

// ParseMode resolves "ESC", "CSC", "FSC", "SC" (and lowercase
// synonyms eager/coarse/fine/session).
func ParseMode(s string) (Mode, error) {
	cm, err := core.ParseMode(s)
	if err != nil {
		return 0, err
	}
	switch cm {
	case core.Eager:
		return Eager, nil
	case core.Coarse:
		return Coarse, nil
	case core.Fine:
		return Fine, nil
	default:
		return Session, nil
	}
}

// Config configures a replicated database.
type Config struct {
	// Replicas is the number of database replicas (default 1).
	Replicas int
	// Mode is the consistency configuration (default Eager — the
	// zero value is the conservative choice).
	Mode Mode
	// SimulateLAN injects the paper's testbed costs (network hops,
	// commit I/O, writeset application), scaled by TimeScale. Without
	// it the cluster runs at raw in-memory speed.
	SimulateLAN bool
	// TimeScale compresses (<1) or stretches (>1) simulated delays;
	// 0 means 1.0.
	TimeScale float64
	// Seed makes simulated jitter deterministic.
	Seed int64
	// WALPath, when set, makes the certifier's decision log durable in
	// that file; otherwise the log is in memory.
	WALPath string
	// RecordHistory enables the consistency-violation checker (see
	// DB.CheckConsistency).
	RecordHistory bool
	// DisableEarlyCert turns off early certification.
	DisableEarlyCert bool
}

// DB is a running replicated database.
type DB struct {
	c   *cluster.Cluster
	w   *wal.Log
	cfg Config
}

// Open starts a cluster: a certifier, the replicas and a gateway, each
// a node listening on its own loopback TCP port (127.0.0.1, ports the
// kernel picks), which sessions reach only through messages to the
// gateway — the deployment cmd/sconrepd runs one node per process.
func Open(cfg Config) (*DB, error) {
	if cfg.Replicas == 0 {
		cfg.Replicas = 1
	}
	var model latency.Model
	if cfg.SimulateLAN {
		scale := cfg.TimeScale
		if scale == 0 {
			scale = 1.0
		}
		model = latency.DefaultLAN().Scaled(scale)
	}
	var log *wal.Log
	if cfg.WALPath != "" {
		var err error
		log, err = wal.Open(cfg.WALPath)
		if err != nil {
			return nil, err
		}
	}
	c, err := cluster.New(cluster.Config{
		Replicas:         cfg.Replicas,
		Mode:             cfg.Mode.internal(),
		Latency:          model,
		Seed:             cfg.Seed,
		WAL:              log,
		RecordHistory:    cfg.RecordHistory,
		DisableEarlyCert: cfg.DisableEarlyCert,
	})
	if err != nil {
		return nil, err
	}
	return &DB{c: c, w: log, cfg: cfg}, nil
}

// Close shuts the cluster down.
func (db *DB) Close() {
	db.c.Close()
	if db.w != nil {
		_ = db.w.Close()
	}
}

// Mode returns the configured consistency mode.
func (db *DB) Mode() Mode { return db.cfg.Mode }

// Replicas returns the replica count.
func (db *DB) Replicas() int { return db.c.NumReplicas() }

// Boot executes bootstrap statements against one replica during
// Bootstrap. Errors are sticky: after the first failure subsequent
// Exec calls are no-ops and Err returns the failure.
type Boot struct {
	e   *storage.Engine
	err error
}

// Exec runs one DDL or DML statement (its own transaction).
func (b *Boot) Exec(q string, args ...any) {
	if b.err != nil {
		return
	}
	tx := b.e.Begin()
	if _, err := sql.Exec(tx, b.e, q, args...); err != nil {
		tx.Abort()
		b.err = fmt.Errorf("sconrep: bootstrap %q: %w", q, err)
		return
	}
	if _, err := tx.CommitLocal(); err != nil {
		b.err = fmt.Errorf("sconrep: bootstrap commit: %w", err)
	}
}

// Err returns the first error, if any.
func (b *Boot) Err() error { return b.err }

// Bootstrap loads the initial schema and data. The function runs once
// per replica and must be deterministic (same statements, same
// order). Call it exactly once, before any sessions.
func (db *DB) Bootstrap(fn func(*Boot) error) error {
	return db.c.LoadData(func(e *storage.Engine) error {
		b := &Boot{e: e}
		if err := fn(b); err != nil {
			return err
		}
		return b.err
	})
}

// ExecSchema applies a DDL statement (CREATE TABLE / CREATE INDEX) to
// every replica. Schema changes are not replicated through the commit
// protocol (the paper's prototype pre-creates the TPC-W schema); this
// is the managed way to roll one out after Bootstrap.
func (db *DB) ExecSchema(q string) error { return db.c.ExecSchemaAll(q) }

// Stmt is a prepared statement, shareable across sessions.
type Stmt struct{ p *sql.Prepared }

// Prepare parses a statement once. The statement's table-set feeds the
// fine-grained consistency mode.
func Prepare(q string) (*Stmt, error) {
	p, err := sql.Prepare(q)
	if err != nil {
		return nil, err
	}
	return &Stmt{p: p}, nil
}

// MustPrepare is Prepare that panics on error — for package-level
// statement variables.
func MustPrepare(q string) *Stmt {
	s, err := Prepare(q)
	if err != nil {
		panic(err)
	}
	return s
}

// TableSet returns the tables the statement touches.
func (s *Stmt) TableSet() []string { return append([]string(nil), s.p.TableSet...) }

// ReadOnly reports whether the statement cannot modify data.
func (s *Stmt) ReadOnly() bool { return s.p.ReadOnly }

// RegisterTxn declares a named transaction and the statements it may
// execute. Under Fine mode the union of their table-sets becomes the
// transaction's synchronization set; unregistered names degrade to
// coarse-grained treatment (still strongly consistent).
func (db *DB) RegisterTxn(name string, stmts ...*Stmt) {
	ps := make([]*sql.Prepared, len(stmts))
	for i, s := range stmts {
		ps[i] = s.p
	}
	db.c.RegisterTxn(name, ps...)
}

// SessionHandle is one client connection. Transactions within a
// session are serial.
type SessionHandle struct{ s *cluster.Session }

// Session opens a session with a generated ID.
func (db *DB) Session() *SessionHandle {
	return &SessionHandle{s: db.c.NewSession()}
}

// SessionWithID opens a session with an explicit ID (one ID = one
// client for the session-consistency bookkeeping).
func (db *DB) SessionWithID(id string) *SessionHandle {
	return &SessionHandle{s: db.c.SessionWithID(id)}
}

// Close releases the session's accounting.
func (s *SessionHandle) Close() { s.s.Close() }

// ID returns the session identifier.
func (s *SessionHandle) ID() string { return s.s.ID() }

// Result is the outcome of one statement.
type Result struct {
	Columns  []string
	Rows     [][]any
	Affected int
}

func fromSQLResult(r *sql.Result) *Result {
	if r == nil {
		return nil
	}
	return &Result{Columns: r.Columns, Rows: r.Rows, Affected: r.Affected}
}

// Tx is one transaction in flight.
type Tx struct{ tx *cluster.Tx }

// Begin starts a transaction. txnName identifies the transaction for
// fine-grained synchronization; pass "" when not using Fine mode or
// when the name is unknown (strong consistency is preserved either
// way).
//
// Begin sends nothing: the begin rides on the transaction's first
// statement (or on Commit when there is none). Routing errors therefore
// surface from that call, the start rule is applied when it arrives —
// never earlier than Begin returned, so the guarantee only gets
// stronger — and Snapshot reads 0 until it has been answered.
func (s *SessionHandle) Begin(txnName string) (*Tx, error) {
	tx, err := s.s.Begin(txnName)
	if err != nil {
		return nil, err
	}
	return &Tx{tx: tx}, nil
}

// BeginWithTableSet starts a transaction tagged with an explicit
// table-set instead of a registered name — useful when the application
// computes its access set dynamically (the paper's footnote-1
// variant). Under non-Fine modes the set is ignored.
func (s *SessionHandle) BeginWithTableSet(tables ...string) (*Tx, error) {
	tx, err := s.s.BeginTables(tables)
	if err != nil {
		return nil, err
	}
	return &Tx{tx: tx}, nil
}

// Exec runs an ad-hoc SQL statement inside the transaction. ErrConflict
// means early certification already aborted it; retry the whole
// transaction.
func (t *Tx) Exec(q string, args ...any) (*Result, error) {
	r, err := t.tx.ExecSQL(q, args...)
	return fromSQLResult(r), mapErr(err)
}

// Stmt runs a prepared statement inside the transaction; errors as for
// Exec.
func (t *Tx) Stmt(st *Stmt, args ...any) (*Result, error) {
	r, err := t.tx.Exec(st.p, args...)
	return fromSQLResult(r), mapErr(err)
}

// Commit finishes the transaction. ErrConflict means a concurrent
// transaction won certification; retry the whole transaction.
func (t *Tx) Commit() error {
	_, err := t.tx.Commit()
	if err != nil {
		return mapErr(err)
	}
	return nil
}

// Abort discards the transaction.
func (t *Tx) Abort() { t.tx.Abort() }

// Snapshot returns the database version the transaction reads.
func (t *Tx) Snapshot() uint64 { return t.tx.Snapshot() }

// Errors surfaced by Commit/Exec.
var (
	// ErrConflict is a certification (or early-certification) abort:
	// retry the transaction.
	ErrConflict = errors.New("sconrep: write conflict, retry the transaction")
	// ErrUnavailable means no replica could serve the transaction: the
	// one serving it crashed mid-flight, or none was live to start it.
	ErrUnavailable = errors.New("sconrep: replica unavailable, retry")
)

func mapErr(err error) error {
	switch {
	case errors.Is(err, replica.ErrCertifyConflict), errors.Is(err, replica.ErrEarlyAbort):
		return fmt.Errorf("%w: %v", ErrConflict, err)
	case errors.Is(err, replica.ErrCrashed), errors.Is(err, wire.ErrUnavailable):
		return fmt.Errorf("%w: %v", ErrUnavailable, err)
	default:
		return err
	}
}

// IsRetryable reports whether the error warrants re-running the
// transaction.
func IsRetryable(err error) bool {
	return errors.Is(err, ErrConflict) || errors.Is(err, ErrUnavailable) ||
		errors.Is(err, replica.ErrCertifyConflict) || errors.Is(err, replica.ErrEarlyAbort) ||
		errors.Is(err, replica.ErrCrashed) || errors.Is(err, wire.ErrUnavailable)
}

// CrashReplica detaches replica i (fault injection). Its durable state
// is retained.
func (db *DB) CrashReplica(i int) { db.c.Replica(i).Crash() }

// RecoverReplica reattaches a crashed replica and catches it up.
func (db *DB) RecoverReplica(i int) error { return db.c.Replica(i).Recover() }

// ReplicaVersion returns replica i's Vlocal (monitoring).
func (db *DB) ReplicaVersion(i int) uint64 { return db.c.Replica(i).Version() }

// Vacuum reclaims storage across the cluster.
func (db *DB) Vacuum() { db.c.VacuumAll() }

// Stats summarizes committed/aborted counts and latency since the
// cluster started (or since the collector was last reset).
type Stats struct {
	Committed, Aborted  int64
	ReadOnly, Updates   int64
	TPS                 float64
	MeanResponseSeconds float64
}

// Stats returns current cluster statistics.
func (db *DB) Stats() Stats {
	s := db.c.Collector().Snapshot()
	return Stats{
		Committed: s.Committed, Aborted: s.Aborted,
		ReadOnly: s.ReadOnly, Updates: s.Updates,
		TPS:                 s.TPS,
		MeanResponseSeconds: s.MeanResponse.Seconds(),
	}
}

// CheckConsistency runs the strong-consistency checker (Definition 1)
// over the recorded history. It returns a description of each
// violation (empty = consistent). Requires Config.RecordHistory.
func (db *DB) CheckConsistency() ([]string, error) {
	rec := db.c.Recorder()
	if rec == nil {
		return nil, errors.New("sconrep: RecordHistory not enabled")
	}
	var out []string
	for _, v := range history.CheckStrong(rec.Events()) {
		out = append(out, v.String())
	}
	return out, nil
}

// CheckSessionConsistency runs the session-consistency checker
// (Definition 2) over the recorded history.
func (db *DB) CheckSessionConsistency() ([]string, error) {
	rec := db.c.Recorder()
	if rec == nil {
		return nil, errors.New("sconrep: RecordHistory not enabled")
	}
	var out []string
	for _, v := range history.CheckSession(rec.Events()) {
		out = append(out, v.String())
	}
	return out, nil
}
