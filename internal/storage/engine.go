// Package storage implements the in-memory multiversion storage engine
// that plays the role of the standalone DBMS inside each replica
// (SQL Server 2008 in the paper's testbed).
//
// The engine provides exactly what the replication middleware needs
// from its local DBMS:
//
//   - snapshot isolation: a transaction reads the database state as of
//     the commit version current when it began, and buffers its writes;
//   - commit-at-version: the proxy commits local and refresh
//     transactions at versions assigned by the certifier, in certifier
//     order, advancing the replica's Vlocal by one per commit;
//   - writeset extraction: a transaction's buffered writes are exported
//     as full row images for certification and refresh propagation;
//   - first-committer-wins (for standalone, unreplicated use).
//
// Tables are B+-tree ordered by an order-preserving encoding of the
// primary key; each row is a version chain. Secondary indexes are
// value-superset indexes: an entry exists while any live version of the
// row carries the indexed value — NULL included, which sorts first — and
// points at the row's chain, so a read goes from the entry straight to
// the row and re-checks there which version it sees and that it carries
// the entry's value.
//
// Concurrency model. One function, installRun, links row versions into
// chains; every writer is a thin caller that picks the engine lock and
// the ordering check. ApplyWriteSet, ApplyWriteSetBatch and CommitLocal
// (and Vacuum) hold e.mu exclusively and publish the versions they
// install before releasing it, exactly as the paper's
// one-commit-at-a-time proxy requires. InstallWriteSets holds e.mu
// shared, so several runs install concurrently, and leaves publication
// to a later PublishVersion. Readers take the per-table lock for B-tree
// and index traversal and rely on atomically swapped chain heads plus
// the snapshot filter, so versions installed but not yet published are
// never observable. installRun states what concurrent callers owe it.
package storage

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"sconrep/internal/btree"
	"sconrep/internal/writeset"
)

// Errors returned by the engine.
var (
	ErrNoTable      = errors.New("storage: no such table")
	ErrNoIndex      = errors.New("storage: no such index")
	ErrDuplicateKey = errors.New("storage: duplicate primary key")
	ErrNoRow        = errors.New("storage: no such row")
	ErrConflict     = errors.New("storage: write-write conflict")
	ErrTxnFinished  = errors.New("storage: transaction already finished")
	ErrBadVersion   = errors.New("storage: commit version out of order")
)

// verRow is one version of a row. deleted marks a tombstone. row and
// prev are immutable after the verRow is linked into a chain, except
// that Vacuum (under an exclusive engine lock) may cut prev.
type verRow struct {
	version uint64
	deleted bool
	row     []any
	prev    *verRow
}

// chain is the version chain of one primary key, newest first. The
// head is swapped atomically so concurrent installRun calls (which
// never share a key) and lock-free readers agree on a fully initialised
// newest version.
type chain struct {
	head atomic.Pointer[verRow]
}

// visibleAt returns the newest version at or below snapshot, or nil.
func (c *chain) visibleAt(snapshot uint64) *verRow {
	for v := c.head.Load(); v != nil; v = v.prev {
		if v.version <= snapshot {
			if v.deleted {
				return nil
			}
			return v
		}
	}
	return nil
}

// secIndex is a secondary index: (encoded value ++ encoded pk) → *ixEntry.
// NULL is indexed like any value; its encoding (tag 0x00) sorts first,
// where ORDER BY puts it, and an equality read never asks for it.
type secIndex struct {
	col  int
	tree *btree.Tree
}

// ixEntry is one secondary-index entry. n counts the live versions of the
// row that carry the entry's value, so vacuum can drop the entry
// precisely; it is written only under the table's exclusive lock. ch is
// the row's chain, fixed for the entry's life: no entry outlives its
// chain, because Vacuum drops a chain only when its head is a tombstone
// and every older version is removed, and removing those versions takes
// each of the key's entries to zero, which deletes it.
type ixEntry struct {
	n  int
	ch *chain
}

// entryKey is the index entry of value val in the row under pk.
func entryKey(val any, pk string) string {
	var buf [64]byte
	return string(append(EncodeValue(buf[:0], val), pk...))
}

// add counts one more version of the row under pk, whose chain is ch,
// carrying val.
func (ix *secIndex) add(val any, pk string, ch *chain) {
	k := entryKey(val, pk)
	if p, ok := ix.tree.Get(k); ok {
		ent := p.(*ixEntry)
		if ent.ch != ch {
			panic(fmt.Sprintf("storage: index entry %q outlived its row's chain", k))
		}
		ent.n++
		return
	}
	ix.tree.Set(k, &ixEntry{n: 1, ch: ch})
}

// remove uncounts one version of the row under pk carrying val.
func (ix *secIndex) remove(val any, pk string) {
	k := entryKey(val, pk)
	if p, ok := ix.tree.Get(k); ok {
		if ent := p.(*ixEntry); ent.n > 1 {
			ent.n--
		} else {
			ix.tree.Delete(k)
		}
	}
}

// table holds one table's schema, row chains, and secondary indexes.
type table struct {
	schema *Schema
	// mu guards the B-tree structures: readers traverse rows/indexes
	// under RLock, installRun mutates them under Lock. Callers holding
	// e.mu exclusively are thereby also exclusive with every concurrent
	// InstallWriteSets.
	// locks after Engine.mu
	mu sync.RWMutex
	// rows maps encoded pk → *chain.
	// guarded by mu
	rows *btree.Tree
	// indexes maps index name → index.
	// guarded by mu
	indexes map[string]*secIndex
	// lastWrite is the newest version that installed an item (write or
	// tombstone) into this table — the per-table Vt as the engine sees
	// it, including not-yet-published refreshes. Advanced by max-CAS so
	// concurrent installers racing on one table converge monotonically.
	lastWrite atomic.Uint64
}

// Engine is a multiversion storage engine instance. All methods are
// safe for concurrent use.
type Engine struct {
	mu sync.RWMutex
	// tables maps table name to its rows and indexes.
	// guarded by mu
	tables map[string]*table
	// version is the published commit version (Vlocal): the highest v
	// such that every version in [1, v] is fully installed and visible.
	// Exclusive-lock commits store it directly; InstallWriteSets callers
	// advance it through PublishVersion's max-CAS.
	version atomic.Uint64
}

// NewEngine returns an empty engine at version 0.
func NewEngine() *Engine {
	return &Engine{tables: make(map[string]*table)}
}

// CreateTable registers a table. It is an error if the name is taken.
func (e *Engine) CreateTable(s *Schema) error {
	cp := &Schema{
		Table:   s.Table,
		Columns: append([]Column(nil), s.Columns...),
		Key:     append([]string(nil), s.Key...),
		Indexes: append([]IndexDef(nil), s.Indexes...),
	}
	if err := cp.normalize(); err != nil {
		return err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, exists := e.tables[cp.Table]; exists {
		return fmt.Errorf("storage: table %s already exists", cp.Table)
	}
	t := &table{
		schema:  cp,
		rows:    btree.New(),
		indexes: make(map[string]*secIndex),
	}
	for _, def := range cp.Indexes {
		t.indexes[def.Name] = &secIndex{col: cp.ColIndex(def.Column), tree: btree.New()}
	}
	e.tables[cp.Table] = t
	return nil
}

// CreateIndex adds a secondary index to an existing table and
// backfills it from all live row versions.
func (e *Engine) CreateIndex(tableName string, def IndexDef) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	t, ok := e.tables[tableName]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoTable, tableName)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, dup := t.indexes[def.Name]; dup {
		return fmt.Errorf("storage: index %s already exists on %s", def.Name, tableName)
	}
	col := t.schema.ColIndex(def.Column)
	if col < 0 {
		return fmt.Errorf("storage: table %s: column %s does not exist", tableName, def.Column)
	}
	ix := &secIndex{col: col, tree: btree.New()}
	it := t.rows.ScanAll()
	for it.Next() {
		pk, ch := it.Key(), it.Value().(*chain)
		for v := ch.head.Load(); v != nil; v = v.prev {
			if !v.deleted {
				ix.add(v.row[col], pk, ch)
			}
		}
	}
	t.indexes[def.Name] = ix
	t.schema.Indexes = append(t.schema.Indexes, def)
	return nil
}

// Schema returns the schema of the named table.
func (e *Engine) Schema(tableName string) (*Schema, bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	t, ok := e.tables[tableName]
	if !ok {
		return nil, false
	}
	return t.schema, true
}

// Tables returns the names of all tables.
func (e *Engine) Tables() []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make([]string, 0, len(e.tables))
	for name := range e.tables {
		out = append(out, name)
	}
	return out
}

// Version returns the engine's published commit version (Vlocal).
func (e *Engine) Version() uint64 {
	return e.version.Load()
}

// TableVersionsAt returns, for each named table, the newest version
// that wrote it, capped at snapshot — an upper bound on the newest
// write a transaction reading at that snapshot can have observed.
// Unknown tables and tables never written are omitted (their bound is
// zero).
func (e *Engine) TableVersionsAt(names []string, snapshot uint64) map[string]uint64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make(map[string]uint64, len(names))
	for _, n := range names {
		if t, ok := e.tables[n]; ok {
			if v := t.lastWrite.Load(); v > 0 {
				if v > snapshot {
					v = snapshot
				}
				out[n] = v
			}
		}
	}
	return out
}

// storeMax advances a to v unless a is already at or past v.
func storeMax(a *atomic.Uint64, v uint64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// sizeRun validates a run against the table schemas and sizes its
// slabs. n is how many leading writesets are installable: len(wss)
// with a nil error, otherwise the index of the first writeset naming
// an unknown table or carrying a malformed row. items and elems count
// the row versions and row cells of those n writesets. Caller holds
// e.mu.
func (e *Engine) sizeRun(wss []*writeset.WriteSet) (n, items, elems int, err error) {
	var cur *table
	for i, ws := range wss {
		wsElems := 0
		for j := range ws.Items {
			it := &ws.Items[j]
			if cur == nil || cur.schema.Table != it.Table {
				if cur = e.tables[it.Table]; cur == nil {
					return i, items, elems, fmt.Errorf("%w: %s", ErrNoTable, it.Table)
				}
			}
			if it.Op != writeset.OpDelete {
				if err := cur.schema.CheckRow(it.Row); err != nil {
					return i, items, elems, err
				}
				wsElems += len(it.Row)
			}
		}
		items += len(ws.Items)
		elems += wsElems
	}
	return len(wss), items, elems, nil
}

// installRun is the one place a row version is linked into a chain:
// wss[i]'s items install at version atVersion+i, in run order, without
// publishing. It returns how many leading writesets it installed — all
// of them, or on error the ones before the offending writeset, which
// itself is left untouched.
//
// The caller holds e.mu, shared or exclusive, and owns every ordering
// check. Writes to one record inside one run are linked in version
// order by the goroutine that runs it, so a run may write a record as
// often as it likes. Concurrent callers (InstallWriteSets under the
// shared lock) owe each other only this: two runs in the engine at the
// same time are record-disjoint, and a run that shares a record with
// an earlier-versioned run starts after that run returned, with a
// happens-before edge.
//
// Version rows and their row copies come from two run-sized slabs: two
// allocations per call instead of two per item, which is most of what
// the refresh-apply hot path allocates. A slab stays reachable while any
// one of its rows does (chains point into it), so vacuum reclaims slab
// memory at run granularity rather than row granularity — bounded
// amplification (a run is one local commit or at most one apply batch)
// traded for an allocation rate the garbage collector no longer
// dominates. Each table's lock is taken once per stretch of same-table
// items.
func (e *Engine) installRun(wss []*writeset.WriteSet, atVersion uint64) (int, error) {
	n, items, elems, err := e.sizeRun(wss)
	slab := make([]verRow, items)
	rowBuf := make([]any, elems)
	var (
		cur  *table
		last uint64 // newest version linked into cur since it was locked
	)
	for i, ws := range wss[:n] {
		v := atVersion + uint64(i)
		for j := range ws.Items {
			it := &ws.Items[j]
			if cur == nil || cur.schema.Table != it.Table {
				if cur != nil {
					cur.mu.Unlock()
					storeMax(&cur.lastWrite, last)
				}
				cur = e.tables[it.Table]
				cur.mu.Lock()
			}
			nv := &slab[0]
			slab = slab[1:]
			nv.version = v
			var ch *chain
			if cv, found := cur.rows.Get(it.Key); found {
				ch = cv.(*chain)
			} else {
				ch = &chain{}
				cur.rows.Set(it.Key, ch)
			}
			if it.Op == writeset.OpDelete {
				nv.deleted = true
			} else {
				nv.row = rowBuf[:len(it.Row):len(it.Row)]
				rowBuf = rowBuf[len(it.Row):]
				copy(nv.row, it.Row)
				// Index entries may precede the chain link: the index is a
				// value superset and readers re-check visibility on the chain.
				for _, ix := range cur.indexes {
					ix.add(nv.row[ix.col], it.Key, ch)
				}
			}
			nv.prev = ch.head.Load()
			ch.head.Store(nv)
			last = v
		}
	}
	if cur != nil {
		cur.mu.Unlock()
		storeMax(&cur.lastWrite, last)
	}
	return n, err
}

// ApplyWriteSet commits a writeset at the given version. The version
// must be exactly Version()+1: the proxy is responsible for applying
// refresh and local commits in certifier order, and this check turns
// an ordering bug into a loud error instead of silent corruption.
func (e *Engine) ApplyWriteSet(ws *writeset.WriteSet, atVersion uint64) error {
	return e.ApplyWriteSetBatch([]*writeset.WriteSet{ws}, atVersion)
}

// ApplyWriteSetBatch commits a contiguous run of writesets in version
// order under a single exclusive lock acquisition: wss[i] commits at
// startVersion+i, and startVersion must be exactly Version()+1. The
// whole batch is installed inside one critical section and only the
// tail version is published, so no reader can ever observe an
// intermediate version before its predecessors — the group-apply
// equivalent of the per-writeset ordering check.
//
// On a mid-batch failure the version counter stops at the last
// writeset before the offending one (the contiguous durable prefix)
// and the error names the offending version; callers treat it as state
// divergence (the replica panics).
func (e *Engine) ApplyWriteSetBatch(wss []*writeset.WriteSet, startVersion uint64) error {
	if len(wss) == 0 {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if v := e.version.Load(); startVersion != v+1 {
		return fmt.Errorf("%w: engine at %d, batch starts at %d", ErrBadVersion, v, startVersion)
	}
	n, err := e.installRun(wss, startVersion)
	e.version.Store(startVersion + uint64(n) - 1)
	if err != nil {
		return fmt.Errorf("storage: batch apply at %d: %w", startVersion+uint64(n), err)
	}
	return nil
}

// InstallWriteSets installs a contiguous run of writesets without
// publishing them: wss[i] installs at atVersion+i, and readers cannot
// observe the new versions until PublishVersion raises the watermark
// to them. It holds only a shared lock on the engine, so runs that meet
// installRun's precondition install concurrently — the replica's
// refresh applier derives that schedule from the batch's conflict
// graph. atVersion must be above the published version (the watermark
// only ever chases installs).
func (e *Engine) InstallWriteSets(wss []*writeset.WriteSet, atVersion uint64) error {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if v := e.version.Load(); atVersion <= v {
		return fmt.Errorf("%w: install at %d behind published %d", ErrBadVersion, atVersion, v)
	}
	_, err := e.installRun(wss, atVersion)
	return err
}

// PublishVersion advances the published version (Vlocal) to v; lower
// or equal publishes are no-ops, so out-of-order watermark
// announcements from concurrent appliers collapse into a monotonic
// sequence. The caller must have completed the install of every
// version in (Version(), v] before publishing v.
func (e *Engine) PublishVersion(v uint64) {
	storeMax(&e.version, v)
}

// Vacuum drops row versions that are no longer visible to any
// snapshot at or above keepVersion, and returns how many versions were
// reclaimed. Chains whose only remaining version is a tombstone at or
// below keepVersion are removed entirely.
func (e *Engine) Vacuum(keepVersion uint64) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	removed := 0
	for _, t := range e.tables {
		t.mu.Lock()
		var drop []string
		it := t.rows.ScanAll()
		for it.Next() {
			pk := it.Key()
			ch := it.Value().(*chain)
			// Find the newest version at or below keepVersion: it is
			// the oldest version any live snapshot can still see.
			var keep *verRow
			for v := ch.head.Load(); v != nil; v = v.prev {
				if v.version <= keepVersion {
					keep = v
					break
				}
			}
			if keep == nil {
				continue
			}
			for v := keep.prev; v != nil; v = v.prev {
				removed++
				if !v.deleted {
					for _, ix := range t.indexes {
						ix.remove(v.row[ix.col], pk)
					}
				}
			}
			keep.prev = nil
			if keep.deleted && keep == ch.head.Load() {
				removed++
				drop = append(drop, pk)
			}
		}
		for _, pk := range drop {
			t.rows.Delete(pk)
		}
		t.mu.Unlock()
	}
	return removed
}
