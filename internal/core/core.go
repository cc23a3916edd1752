// Package core distills the paper's contribution: the four consistency
// configurations and the rule that decides, for each new transaction,
// the minimum database version its replica must reach before the
// transaction may start (the "synchronization start delay" bound).
//
// The load balancer owns one Tracker. Replicas report the versions
// their commits produce; the tracker folds them into
//
//   - Vsystem  — the version of the latest commit acknowledged to any
//     client (coarse-grained strong consistency synchronizes on this);
//   - Vt       — per-table versions: the latest commit that wrote each
//     table (fine-grained strong consistency synchronizes on the max
//     over the transaction's table-set).
//
// The third input, Vsession, is not the balancer's: each client session
// holds its own Floor — the newest version it was told of, and under
// fine-grained consistency the newest write to each table it can have
// observed — and sends it with every begin. The session outlives its
// connection, so its floor does too (Terry et al., "Session Guarantees
// for Weakly Consistent Replicated Data", PDIS 1994).
//
// Eager strong consistency needs no start version at all (every
// replica already committed everything acknowledged), paying instead
// with the global commit delay at the end of update transactions.
package core

import (
	"fmt"
	"slices"
	"strings"
	"sync"
)

// Mode selects the consistency configuration (§III and §IV).
type Mode int

const (
	// Eager — eager strong consistency (ESC): commits are acknowledged
	// only after every replica applied them; transactions start
	// immediately.
	Eager Mode = iota
	// Coarse — lazy coarse-grained strong consistency (CSC):
	// transaction start is delayed until the replica has applied every
	// writeset committed system-wide (Vlocal ≥ Vsystem).
	Coarse
	// Fine — lazy fine-grained strong consistency (FSC): transaction
	// start is delayed until the tables in its table-set are current
	// (Vlocal ≥ max{Vt}).
	Fine
	// Session — session consistency (SC), the weaker baseline: start is
	// delayed until the session's own last commit is visible.
	Session
)

// String returns the configuration label used in EXPERIMENTS.md.
func (m Mode) String() string {
	switch m {
	case Eager:
		return "ESC"
	case Coarse:
		return "CSC"
	case Fine:
		return "FSC"
	case Session:
		return "SC"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Strong reports whether the mode guarantees strong consistency
// (Definition 1). Session consistency does not.
func (m Mode) Strong() bool { return m != Session }

// ParseMode maps a label (as accepted by the CLI tools) to a Mode.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "ESC", "esc", "eager":
		return Eager, nil
	case "CSC", "csc", "coarse":
		return Coarse, nil
	case "FSC", "fsc", "fine":
		return Fine, nil
	case "SC", "sc", "session":
		return Session, nil
	default:
		return 0, fmt.Errorf("core: unknown consistency mode %q (want ESC, CSC, FSC, or SC)", s)
	}
}

// Tracker is the load balancer's version accounting: soft state,
// rebuilt from replica responses after a failover. It holds Vsystem and
// Vt only; a session's floor is the client's (Floor).
type Tracker struct {
	mu      sync.Mutex
	vsystem uint64
	tables  map[string]uint64
	// seed is the floor Seed put under every table's Vt.
	seed uint64
}

// NewTracker returns a tracker at version 0 with no known tables.
func NewTracker() *Tracker {
	return &Tracker{tables: make(map[string]uint64)}
}

// ObserveCommit folds one acknowledged update commit into the tracker:
// version is the certifier-assigned commit version, writtenTables the
// tables in the transaction's writeset. A table name is copied when it
// first enters the tracker, so the caller's may alias a frame.
//
// Versions only move forward; replica responses may arrive out of
// order.
func (t *Tracker) ObserveCommit(version uint64, writtenTables []string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if version > t.vsystem {
		t.vsystem = version
	}
	for _, tab := range writtenTables {
		if cur, known := t.tables[tab]; version > cur {
			if !known {
				tab = strings.Clone(tab)
			}
			t.tables[tab] = version
		}
	}
}

// Seed folds in a version the tracker learned without observing the
// commits below it: a replica's Vlocal, from the first status answer a
// new gateway gets from that replica. Vsystem rises to it, and it
// becomes a floor under every table's Vt, since the tracker cannot tell
// which tables those commits wrote. Under FSC a transaction therefore
// starts at or above the seed, as under CSC, but only there: a commit
// observed later raises only its own tables' Vt, so §III-C's benefit
// holds for every lag after the seed. Versions only move forward.
func (t *Tracker) Seed(v uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.vsystem = max(t.vsystem, v)
	t.seed = max(t.seed, v)
}

// VSystem returns the current system version.
func (t *Tracker) VSystem() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.vsystem
}

// TableVersion returns Vt for one table, at or above the seed.
func (t *Tracker) TableVersion(table string) uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return max(t.seed, t.tables[table])
}

// MinStartVersion returns the version the executing replica must reach
// before the transaction may start, per Theorems 1 and 2, for a session
// whose floor is f:
//
//	Eager   → 0            (replicas are always current for acked txns)
//	Coarse  → max(Vsystem, Vsession)
//	Fine    → max{max(Vt, Vsession,t) : t ∈ tableSet}
//	Session → Vsession
//
// For Fine, a table never written since system start has Vt = 0, so a
// transaction over read-only tables starts immediately — the behaviour
// §III-C highlights.
//
// Coarse takes the maximum with the scalar session floor so it is
// never weaker than session consistency: a session that read a
// snapshot *fresher* than Vsystem (its replica had applied a
// not-yet-acknowledged commit) must not regress on its next
// transaction. Strong consistency alone does not forbid that — the
// fresher commit was unacknowledged — but monotonic session reads do,
// and SC provides them, so CSC must too.
//
// Fine enforces the same guarantee at table granularity (Vsession,t:
// see Floor). A scalar floor would be wrong here, not merely loose:
// every read-only commit would teach the session its snapshot version,
// and the next transaction — even one over tables nobody ever writes —
// would wait out the full replication lag to reach a version whose
// extra content it cannot observe. That erases exactly the benefit
// §III-C claims for skewed workloads. The per-table floors keep
// everything a client can actually see monotonic: reads of a table
// never run below any write to it the session has observed, and a
// session's own writes (floored at their commit versions) stay visible.
func (t *Tracker) MinStartVersion(mode Mode, tableSet []string, f Floor) uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	switch mode {
	case Eager:
		return 0
	case Fine:
		var v uint64
		for _, tab := range tableSet {
			v = max(v, t.seed, t.tables[tab], f.table(tab))
		}
		return v
	case Session:
		return f.Version
	default:
		// Coarse; unknown modes get the strongest (coarse) treatment
		// rather than silently weakening consistency.
		return max(t.vsystem, f.Version)
	}
}

// Floor is one session's start floor, Vsession: the newest versions the
// session was told of, which none of its later transactions may start
// below. The client keeps it across connections and sends it with each
// begin; the gateway starts the transaction at the maximum of it and
// the tracker's bound (Tracker.MinStartVersion). A commit whose answer
// never arrived raises nothing: the session's guarantees cover what it
// was told.
type Floor struct {
	// Version is the newest commit version, or read-only snapshot, the
	// session was answered.
	Version uint64
	// Tables and Versions are the fine-grained floors, aligned: for each
	// table, the newest write to it the session can have observed. Only
	// a fine-grained gateway reports them, so under the other modes they
	// stay empty.
	Tables   []string
	Versions []uint64
}

// Observe folds one answered commit into f: version is its commit
// version, or its snapshot when it wrote nothing; versions, aligned
// with tables and nil when absent, are the per-table bounds its replica
// reported (0 is no bound). A table name is copied when it first enters
// f, so the caller's may alias a frame.
func (f *Floor) Observe(version uint64, tables []string, versions []uint64) {
	f.Version = max(f.Version, version)
	for i, v := range versions {
		switch j := slices.Index(f.Tables, tables[i]); {
		case j >= 0:
			f.Versions[j] = max(f.Versions[j], v)
		case v > 0:
			f.Tables = append(f.Tables, strings.Clone(tables[i]))
			f.Versions = append(f.Versions, v)
		}
	}
}

// table returns the floor of one table, 0 when f holds none.
func (f Floor) table(tab string) uint64 {
	if j := slices.Index(f.Tables, tab); j >= 0 {
		return f.Versions[j]
	}
	return 0
}

// Snapshot returns a copy of all table versions, for inspection.
func (t *Tracker) Snapshot() (vsystem uint64, tables map[string]uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	tables = make(map[string]uint64, len(t.tables))
	for k, v := range t.tables {
		tables[k] = v
	}
	return t.vsystem, tables
}

// TableSetRegistry maps transaction identifiers to their statically
// extracted table-sets (§IV-B: the load balancer retrieves this
// information once and keeps it in a dictionary; clients tag requests
// with the transaction identifier).
type TableSetRegistry struct {
	mu   sync.RWMutex
	sets map[string][]string
}

// NewTableSetRegistry returns an empty registry.
func NewTableSetRegistry() *TableSetRegistry {
	return &TableSetRegistry{sets: make(map[string][]string)}
}

// Register records the table-set for a transaction identifier.
func (r *TableSetRegistry) Register(txnName string, tables []string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sets[txnName] = append([]string(nil), tables...)
}

// Lookup returns the registered table-set and whether it is known.
func (r *TableSetRegistry) Lookup(txnName string) ([]string, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	ts, ok := r.sets[txnName]
	return ts, ok
}

// Names returns all registered transaction identifiers.
func (r *TableSetRegistry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.sets))
	for k := range r.sets {
		out = append(out, k)
	}
	return out
}
