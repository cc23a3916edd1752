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
// the ordering check. (Build, which makes an empty engine whole from an
// image, builds its chains off to the side and swaps them in under
// e.mu.) ApplyWriteSet, ApplyWriteSetBatch and CommitLocal hold e.mu
// exclusively and publish the versions they install before releasing
// it, exactly as the paper's one-commit-at-a-time proxy requires. InstallWriteSets holds e.mu shared, so several runs install
// concurrently, and leaves publication to a later PublishVersion.
// Readers take the per-table lock for B-tree and index traversal and
// rely on atomically swapped chain heads plus the snapshot filter, so
// versions installed but not yet published are never observable.
// installRun states what concurrent callers owe it.
//
// Garbage. Every unfinished Txn pins the snapshot it reads (a
// checkpoint scan reads through one), and Horizon is the lowest pin, or
// the published version when nothing is pinned: no reader can see a
// version older than the newest one at or below it. installRun, as it
// pushes a head onto a chain, cuts every version older than that one,
// and drops from the tree the chains of earlier deletes whose tombstone
// the horizon has passed. Collection rides the install path; nothing
// sweeps.
package storage

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
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
	ErrPruned       = errors.New("storage: snapshot below the horizon")
)

// verRow is one version of a row. deleted marks a tombstone. version,
// deleted and row are immutable after the verRow is linked into a chain;
// prev is cut to nil by installRun once no snapshot at or above the
// horizon can reach past the version (prune). A reader pinned at or
// above the horizon stops at or before that version, so it never
// follows a link being cut; prev is atomic all the same, so a walk and
// a cut are race-free whatever the walker's snapshot.
type verRow struct {
	version uint64
	deleted bool
	row     []any
	prev    atomic.Pointer[verRow]
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
	for v := c.head.Load(); v != nil; v = v.prev.Load() {
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

// ixEntry is one secondary-index entry. n counts the versions still
// linked in the row's chain that carry the entry's value, so a prune
// drops the entry exactly when it cuts the last of them; it is written
// only under the table's exclusive lock. ch is the row's chain, fixed
// for the entry's life: no entry outlives its chain, because a chain
// leaves the tree only once the horizon has passed its tombstone head
// and every older version is cut, and cutting those versions takes each
// of the key's entries to zero, which deletes it.
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

// uncount uncounts, from the row under pk, every live version of cut,
// the versions a prune just unlinked.
func (ix *secIndex) uncount(pk string, cut *verRow) {
	for v := cut; v != nil; v = v.prev.Load() {
		if !v.deleted {
			ix.remove(v.row[ix.col], pk)
		}
	}
}

// prune unlinks, from the chain nv heads, every version older than the
// newest one at or below horizon, and returns the first of them, the
// head of the unlinked list; nil when there is nothing to cut.
func prune(nv *verRow, horizon uint64) *verRow {
	for v := nv; v != nil; v = v.prev.Load() {
		if v.version <= horizon {
			if v.prev.Load() == nil {
				return nil // nothing linked below: store nothing
			}
			return v.prev.Swap(nil)
		}
	}
	return nil
}

// tomb is a delete waiting for the horizon to pass it: once it has,
// and the chain under key still ends in that tombstone, the chain
// leaves the tree.
type tomb struct {
	key string
	v   *verRow
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
	// tombs are the deletes whose chains are still in rows, in install
	// order (version order, except that concurrent runs may interleave).
	// guarded by mu
	tombs []tomb
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
	// id names the engine among every engine of the process (ID).
	id uint64
	// pinMu guards pins. Begin reads the version and pins it, and
	// Horizon reads the lowest pin, under it, so a begin racing a
	// horizon read lands at or above the value that read returns.
	// locks after Engine.mu
	pinMu sync.Mutex
	// pins are the snapshots that unfinished transactions read,
	// ascending, each once with how many hold it.
	// guarded by pinMu
	pins []pin
}

// pin is one pinned snapshot and how many readers hold it.
type pin struct {
	snapshot uint64
	n        int
}

// engines counts the engines made in this process.
var engines atomic.Uint64

// NewEngine returns an empty engine at version 0.
func NewEngine() *Engine {
	return &Engine{tables: make(map[string]*table), id: engines.Add(1)}
}

// ID returns a number no other engine of the process has: a key under
// which a caller can keep what it derived from this engine's schemas
// without holding the engine itself.
func (e *Engine) ID() uint64 { return e.id }

// CreateTable registers a table. It is an error if the name is taken.
func (e *Engine) CreateTable(s *Schema) error {
	cp, err := s.clone()
	if err != nil {
		return err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, exists := e.tables[cp.Table]; exists {
		return fmt.Errorf("storage: table %s already exists", cp.Table)
	}
	e.tables[cp.Table] = newTable(cp)
	return nil
}

// newTable returns an empty table under the validated schema s, with
// its (empty) secondary indexes.
func newTable(s *Schema) *table {
	t := &table{
		schema:  s,
		rows:    btree.New(),
		indexes: make(map[string]*secIndex, len(s.Indexes)),
	}
	for _, def := range s.Indexes {
		t.indexes[def.Name] = &secIndex{col: s.ColIndex(def.Column), tree: btree.New()}
	}
	return t
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
		for v := ch.head.Load(); v != nil; v = v.prev.Load() {
			if !v.deleted {
				ix.add(v.row[col], pk, ch)
			}
		}
	}
	t.indexes[def.Name] = ix
	// Copy on write: Schema hands the old *Schema to readers that hold
	// no lock, so it is never edited.
	cp := *t.schema
	cp.Indexes = append(slices.Clip(cp.Indexes), def)
	t.schema = &cp
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

// Horizon returns the oldest snapshot any reader may still read: the
// lowest snapshot an unfinished Txn holds, or the published version
// when none does. It never falls. No snapshot below it can be begun,
// and every version older than the newest one at or below it is
// garbage, which installRun cuts from each chain it pushes a head onto.
func (e *Engine) Horizon() uint64 {
	e.pinMu.Lock()
	defer e.pinMu.Unlock()
	return e.horizonLocked()
}

// horizonLocked is Horizon; caller holds pinMu.
func (e *Engine) horizonLocked() uint64 {
	if len(e.pins) > 0 {
		return e.pins[0].snapshot
	}
	return e.version.Load()
}

// pinLatest pins the published version and returns it.
func (e *Engine) pinLatest() uint64 {
	e.pinMu.Lock()
	defer e.pinMu.Unlock()
	v := e.version.Load()
	e.pinLocked(v)
	return v
}

// pinAt pins snapshot v, which must lie between the horizon and the
// published version.
func (e *Engine) pinAt(v uint64) error {
	e.pinMu.Lock()
	defer e.pinMu.Unlock()
	if cur := e.version.Load(); v > cur {
		return fmt.Errorf("storage: snapshot %d ahead of engine version %d", v, cur)
	}
	if h := e.horizonLocked(); v < h {
		return fmt.Errorf("%w: snapshot %d, horizon %d", ErrPruned, v, h)
	}
	e.pinLocked(v)
	return nil
}

// pinLocked adds one hold on snapshot v; caller holds pinMu. A new
// snapshot is almost always the newest, so the search runs from the end.
func (e *Engine) pinLocked(v uint64) {
	i := len(e.pins)
	for i > 0 && e.pins[i-1].snapshot > v {
		i--
	}
	if i > 0 && e.pins[i-1].snapshot == v {
		e.pins[i-1].n++
		return
	}
	e.pins = slices.Insert(e.pins, i, pin{snapshot: v, n: 1})
}

// unpin releases one hold on snapshot v.
func (e *Engine) unpin(v uint64) {
	e.pinMu.Lock()
	defer e.pinMu.Unlock()
	i, ok := slices.BinarySearchFunc(e.pins, v, func(p pin, v uint64) int { return cmp.Compare(p.snapshot, v) })
	if !ok {
		panic(fmt.Sprintf("storage: unpin of snapshot %d, which nothing pins", v))
	}
	if e.pins[i].n--; e.pins[i].n == 0 {
		e.pins = slices.Delete(e.pins, i, i+1)
	}
}

// TableVersionsAt returns, for each named table, the newest version
// that wrote it, capped at snapshot — an upper bound on the newest
// write a transaction reading at that snapshot can have observed. The
// versions are aligned with names; an unknown table and a table never
// written read 0.
func (e *Engine) TableVersionsAt(names []string, snapshot uint64) []uint64 {
	out := make([]uint64, len(names))
	e.mu.RLock()
	defer e.mu.RUnlock()
	for i, n := range names {
		if t, ok := e.tables[n]; ok {
			out[i] = min(t.lastWrite.Load(), snapshot)
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
// version slab. n is how many leading writesets are installable:
// len(wss) with a nil error, otherwise the index of the first writeset
// naming an unknown table or carrying a malformed row. items counts the
// row versions of those n writesets. Caller holds e.mu.
func (e *Engine) sizeRun(wss []*writeset.WriteSet) (n, items int, err error) {
	var cur *table
	for i, ws := range wss {
		for j := range ws.Items {
			it := &ws.Items[j]
			if cur == nil || cur.schema.Table != it.Table {
				if cur = e.tables[it.Table]; cur == nil {
					return i, items, fmt.Errorf("%w: %s", ErrNoTable, it.Table)
				}
			}
			if it.Op != writeset.OpDelete {
				if err := cur.schema.CheckRow(it.Row); err != nil {
					return i, items, err
				}
			}
		}
		items += len(ws.Items)
	}
	return len(wss), items, nil
}

// installRun is the one place a row version is linked into a chain:
// wss[i]'s items install at version atVersion+i, in run order, without
// publishing. It returns how many leading writesets it installed — all
// of them, or on error the ones before the offending writeset, which
// itself is left untouched.
//
// It is also the one place versions are forgotten. The horizon is read
// once, before the first link: a reader that begins later pins a
// version at or above it. Each chain the run pushes a head onto is cut
// below its newest version at or below that horizon (prune), and the
// table's earlier deletes the horizon has passed leave the tree
// (dropTombsLocked).
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
// The row image each item carries is linked as handed, not copied: it
// is a Txn's private pending copy, or a row freshly decoded from a
// frame or the WAL, and nobody writes into it afterwards
// (the rule every install entry point states). Version rows come from
// one run-sized slab: one allocation per call instead of one per item,
// which is most of what the refresh-apply hot path allocates. A slab
// stays reachable while any one of its version rows does (chains point
// into it), so pruning reclaims version rows at run granularity —
// bounded amplification, a run being one local commit or at most one
// apply batch — and the row images themselves one by one. Each table's
// lock is taken once per stretch of same-table items.
func (e *Engine) installRun(wss []*writeset.WriteSet, atVersion uint64) (int, error) {
	n, items, err := e.sizeRun(wss)
	horizon := e.Horizon()
	slab := make([]verRow, items)
	var (
		cur  *table
		last uint64 // newest version linked into cur since it was locked
	)
	release := func() {
		cur.dropTombsLocked(horizon)
		cur.mu.Unlock()
		storeMax(&cur.lastWrite, last)
	}
	for i, ws := range wss[:n] {
		v := atVersion + uint64(i)
		for j := range ws.Items {
			it := &ws.Items[j]
			if cur == nil || cur.schema.Table != it.Table {
				if cur != nil {
					release()
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
				cur.tombs = append(cur.tombs, tomb{key: it.Key, v: nv})
			} else {
				nv.row = it.Row
			}
			nv.prev.Store(ch.head.Load())
			// Index entries may precede the chain link: the index is a
			// value superset and readers re-check visibility on the chain.
			// The cut versions are invisible to every pinned snapshot.
			// Counting nv before uncounting the cut keeps an entry both
			// carry from leaving the tree in between.
			cut := prune(nv, horizon)
			for _, ix := range cur.indexes {
				if !nv.deleted {
					ix.add(nv.row[ix.col], it.Key, ch)
				}
				ix.uncount(it.Key, cut)
			}
			ch.head.Store(nv)
			last = v
		}
	}
	if cur != nil {
		release()
	}
	return n, err
}

// dropTombsLocked takes out of the tree the chains of the deletes the
// horizon has passed, oldest first, stopping at the first it has not:
// a chain whose head is still that tombstone is visible to no snapshot
// at or above the horizon, so its older versions are cut (with their
// index entries) and its key is removed. A key written again since its
// delete keeps its chain. Caller holds t.mu exclusively.
func (t *table) dropTombsLocked(horizon uint64) {
	i := 0
	for ; i < len(t.tombs) && t.tombs[i].v.version <= horizon; i++ {
		tb := t.tombs[i]
		cv, ok := t.rows.Get(tb.key)
		if !ok || cv.(*chain).head.Load() != tb.v {
			continue
		}
		cut := prune(tb.v, horizon)
		for _, ix := range t.indexes {
			ix.uncount(tb.key, cut)
		}
		t.rows.Delete(tb.key)
	}
	if i > 0 {
		n := copy(t.tombs, t.tombs[i:])
		clear(t.tombs[n:])
		t.tombs = t.tombs[:n]
	}
}

// ApplyWriteSet commits a writeset at the given version. The version
// must be exactly Version()+1: the proxy is responsible for applying
// refresh and local commits in certifier order, and this check turns
// an ordering bug into a loud error instead of silent corruption.
//
// The engine keeps the row slices it is handed, here and in
// ApplyWriteSetBatch, InstallWriteSets and Build: the caller must
// not write into an item's Row after the call.
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
// divergence (the replica panics). The engine keeps the row slices it
// is handed (see ApplyWriteSet).
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
// to them. It holds only a shared lock on the engine, so snapshot
// reads proceed while the run installs. atVersion must be above the
// published version (the watermark only ever chases installs). The
// engine keeps the row slices it is handed (see ApplyWriteSet).
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
