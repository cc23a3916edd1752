package storage

import (
	"fmt"
	"sort"

	"sconrep/internal/writeset"
)

// Txn is a snapshot-isolated transaction. Reads observe the database
// as of the snapshot version plus the transaction's own buffered
// writes; writes are buffered until commit.
//
// A Txn must be used from a single goroutine.
type Txn struct {
	e        *Engine
	snapshot uint64
	// writes buffers this transaction's modifications:
	// table → encoded pk → pending write.
	writes   map[string]map[string]*pendingWrite
	order    []writeRef
	finished bool
}

type pendingWrite struct {
	op  writeset.Op
	row []any
	// removed marks a write cancelled by a later operation in the same
	// transaction (insert followed by delete of a row that did not
	// exist at the snapshot).
	removed bool
}

type writeRef struct {
	table string
	key   string
}

// Begin starts a transaction reading the engine's latest snapshot.
func (e *Engine) Begin() *Txn {
	return e.beginAt(e.version.Load())
}

// BeginAt starts a transaction reading the snapshot at version v,
// which must not exceed the engine's current version.
func (e *Engine) BeginAt(v uint64) (*Txn, error) {
	cur := e.version.Load()
	if v > cur {
		return nil, fmt.Errorf("storage: snapshot %d ahead of engine version %d", v, cur)
	}
	return e.beginAt(v), nil
}

func (e *Engine) beginAt(v uint64) *Txn {
	return &Txn{
		e:        e,
		snapshot: v,
		writes:   make(map[string]map[string]*pendingWrite),
	}
}

// Snapshot returns the version this transaction reads.
func (t *Txn) Snapshot() uint64 { return t.snapshot }

// pending returns the live pending write for (table, key), if any.
func (t *Txn) pending(table, key string) *pendingWrite {
	if m, ok := t.writes[table]; ok {
		if pw, ok := m[key]; ok && !pw.removed {
			return pw
		}
	}
	return nil
}

func (t *Txn) setPending(table, key string, pw *pendingWrite) {
	m, ok := t.writes[table]
	if !ok {
		m = make(map[string]*pendingWrite)
		t.writes[table] = m
	}
	if _, existed := m[key]; !existed {
		t.order = append(t.order, writeRef{table, key})
	}
	m[key] = pw
}

// committedAt returns the committed row visible at the snapshot,
// ignoring the transaction's own writes.
func (t *Txn) committedAt(table, key string) ([]any, bool, error) {
	t.e.mu.RLock()
	defer t.e.mu.RUnlock()
	tb, ok := t.e.tables[table]
	if !ok {
		return nil, false, fmt.Errorf("%w: %s", ErrNoTable, table)
	}
	tb.mu.RLock()
	cv, ok := tb.rows.Get(key)
	tb.mu.RUnlock()
	if !ok {
		return nil, false, nil
	}
	vr := cv.(*chain).visibleAt(t.snapshot)
	if vr == nil {
		return nil, false, nil
	}
	return append([]any(nil), vr.row...), true, nil
}

// Get returns a copy of the row under the encoded primary key, as
// visible to this transaction.
func (t *Txn) Get(table, key string) ([]any, bool, error) {
	if t.finished {
		return nil, false, ErrTxnFinished
	}
	if pw := t.pending(table, key); pw != nil {
		if pw.op == writeset.OpDelete {
			return nil, false, nil
		}
		return append([]any(nil), pw.row...), true, nil
	}
	return t.committedAt(table, key)
}

// Insert adds a row. It fails with ErrDuplicateKey if the key is
// visible to this transaction.
func (t *Txn) Insert(table string, row []any) error {
	if t.finished {
		return ErrTxnFinished
	}
	s, ok := t.e.Schema(table)
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoTable, table)
	}
	if err := s.CheckRow(row); err != nil {
		return err
	}
	key, err := s.KeyOf(row)
	if err != nil {
		return err
	}
	if pw := t.pending(table, key); pw != nil {
		if pw.op != writeset.OpDelete {
			return fmt.Errorf("%w: %s[%q]", ErrDuplicateKey, table, key)
		}
		// Delete then re-insert within the transaction: the row existed
		// committed, so the net effect is an update.
		t.setPending(table, key, &pendingWrite{op: writeset.OpUpdate, row: append([]any(nil), row...)})
		return nil
	}
	_, exists, err := t.committedAt(table, key)
	if err != nil {
		return err
	}
	if exists {
		return fmt.Errorf("%w: %s[%q]", ErrDuplicateKey, table, key)
	}
	t.setPending(table, key, &pendingWrite{op: writeset.OpInsert, row: append([]any(nil), row...)})
	return nil
}

// Update replaces the row under key with the new image. The new image
// must encode the same primary key. Fails with ErrNoRow if the row is
// not visible.
func (t *Txn) Update(table, key string, row []any) error {
	if t.finished {
		return ErrTxnFinished
	}
	s, ok := t.e.Schema(table)
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoTable, table)
	}
	if err := s.CheckRow(row); err != nil {
		return err
	}
	nk, err := s.KeyOf(row)
	if err != nil {
		return err
	}
	if nk != key {
		// A primary-key update is a delete plus an insert.
		if err := t.Delete(table, key); err != nil {
			return err
		}
		return t.Insert(table, row)
	}
	if pw := t.pending(table, key); pw != nil {
		if pw.op == writeset.OpDelete {
			return fmt.Errorf("%w: %s[%q]", ErrNoRow, table, key)
		}
		t.setPending(table, key, &pendingWrite{op: pw.op, row: append([]any(nil), row...)})
		return nil
	}
	_, exists, err := t.committedAt(table, key)
	if err != nil {
		return err
	}
	if !exists {
		return fmt.Errorf("%w: %s[%q]", ErrNoRow, table, key)
	}
	t.setPending(table, key, &pendingWrite{op: writeset.OpUpdate, row: append([]any(nil), row...)})
	return nil
}

// Delete removes the row under key. Fails with ErrNoRow if the row is
// not visible to this transaction.
func (t *Txn) Delete(table, key string) error {
	if t.finished {
		return ErrTxnFinished
	}
	if _, ok := t.e.Schema(table); !ok {
		return fmt.Errorf("%w: %s", ErrNoTable, table)
	}
	if pw := t.pending(table, key); pw != nil {
		if pw.op == writeset.OpDelete {
			return fmt.Errorf("%w: %s[%q]", ErrNoRow, table, key)
		}
		if pw.op == writeset.OpInsert {
			// The row never existed outside this transaction: cancel.
			pw.removed = true
			return nil
		}
		t.setPending(table, key, &pendingWrite{op: writeset.OpDelete})
		return nil
	}
	_, exists, err := t.committedAt(table, key)
	if err != nil {
		return err
	}
	if !exists {
		return fmt.Errorf("%w: %s[%q]", ErrNoRow, table, key)
	}
	t.setPending(table, key, &pendingWrite{op: writeset.OpDelete})
	return nil
}

// KV is a scan result: the encoded primary key and a copy of the row.
type KV struct {
	Key string
	Row []any
}

// ScanRange returns the rows visible to this transaction with encoded
// primary keys in [lo, hi), in key order. Empty lo scans from the
// start; empty hi scans to the end.
func (t *Txn) ScanRange(table, lo, hi string) ([]KV, error) {
	if t.finished {
		return nil, ErrTxnFinished
	}
	var out []KV
	t.e.mu.RLock()
	tb, ok := t.e.tables[table]
	if !ok {
		t.e.mu.RUnlock()
		return nil, fmt.Errorf("%w: %s", ErrNoTable, table)
	}
	tb.mu.RLock()
	it := tb.rows.Scan(lo, hi)
	for it.Next() {
		key := it.Key()
		if pw := t.pending(table, key); pw != nil {
			continue // own write overrides; merged below
		}
		if vr := it.Value().(*chain).visibleAt(t.snapshot); vr != nil {
			out = append(out, KV{Key: key, Row: append([]any(nil), vr.row...)})
		}
	}
	tb.mu.RUnlock()
	t.e.mu.RUnlock()

	// Overlay this transaction's own writes in the range.
	if m := t.writes[table]; len(m) > 0 {
		for key, pw := range m {
			if pw.removed || pw.op == writeset.OpDelete {
				continue
			}
			if key < lo || (hi != "" && key >= hi) {
				continue
			}
			out = append(out, KV{Key: key, Row: append([]any(nil), pw.row...)})
		}
		sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	}
	return out, nil
}

// ScanAll returns every row visible to this transaction, in key order.
func (t *Txn) ScanAll(table string) ([]KV, error) {
	return t.ScanRange(table, "", "")
}

// ScanIndexEq returns the visible rows whose indexed column equals
// val, using the named secondary index, in primary-key order within
// equal values.
func (t *Txn) ScanIndexEq(table, index string, val any) ([]KV, error) {
	if t.finished {
		return nil, ErrTxnFinished
	}
	if val == nil {
		return nil, nil // NULL matches nothing under equality
	}
	var out []KV
	t.e.mu.RLock()
	tb, ok := t.e.tables[table]
	if !ok {
		t.e.mu.RUnlock()
		return nil, fmt.Errorf("%w: %s", ErrNoTable, table)
	}
	tb.mu.RLock()
	ix, ok := tb.indexes[index]
	if !ok {
		tb.mu.RUnlock()
		t.e.mu.RUnlock()
		return nil, fmt.Errorf("%w: %s on %s", ErrNoIndex, index, table)
	}
	col := ix.col
	prefix := string(EncodeValue(nil, val))
	it := ix.tree.Scan(prefix, prefix+"\xff")
	for it.Next() {
		pk := it.Key()[len(prefix):]
		if pw := t.pending(table, pk); pw != nil {
			continue // overlaid below
		}
		cv, ok := tb.rows.Get(pk)
		if !ok {
			continue
		}
		vr := cv.(*chain).visibleAt(t.snapshot)
		// The index is a superset over versions: re-check the value.
		if vr != nil && ValuesEqual(vr.row[col], val) {
			out = append(out, KV{Key: pk, Row: append([]any(nil), vr.row...)})
		}
	}
	tb.mu.RUnlock()
	t.e.mu.RUnlock()

	if m := t.writes[table]; len(m) > 0 {
		for key, pw := range m {
			if pw.removed || pw.op == writeset.OpDelete {
				continue
			}
			if ValuesEqual(pw.row[col], val) {
				out = append(out, KV{Key: key, Row: append([]any(nil), pw.row...)})
			}
		}
		sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	}
	return out, nil
}

// WriteSet exports the transaction's buffered writes as full row
// images, in first-touch order.
func (t *Txn) WriteSet() *writeset.WriteSet {
	ws := &writeset.WriteSet{}
	for _, ref := range t.order {
		pw := t.writes[ref.table][ref.key]
		if pw.removed {
			continue
		}
		item := writeset.Item{Table: ref.table, Key: ref.key, Op: pw.op}
		if pw.op != writeset.OpDelete {
			item.Row = append([]any(nil), pw.row...)
		}
		ws.Items = append(ws.Items, item)
	}
	return ws
}

// ReadOnly reports whether the transaction has buffered no writes.
func (t *Txn) ReadOnly() bool {
	for _, ref := range t.order {
		if !t.writes[ref.table][ref.key].removed {
			return false
		}
	}
	return true
}

// Abort discards the transaction.
func (t *Txn) Abort() {
	t.finished = true
}

// CommitLocal commits the transaction directly against this engine
// with a first-committer-wins check — the path a standalone
// (unreplicated) database takes. Replicated deployments instead route
// the writeset through the certifier and call Engine.ApplyWriteSet at
// the assigned version.
func (t *Txn) CommitLocal() (uint64, error) {
	if t.finished {
		return 0, ErrTxnFinished
	}
	t.finished = true
	ws := t.WriteSet()
	t.e.mu.Lock()
	defer t.e.mu.Unlock()
	if ws.Empty() {
		return t.e.version.Load(), nil
	}
	// First committer wins: if any written record changed after our
	// snapshot, abort. The exclusive e.mu excludes every other installRun
	// caller, so the plain tree reads here are race-free.
	for i := range ws.Items {
		it := &ws.Items[i]
		tb, ok := t.e.tables[it.Table]
		if !ok {
			return 0, fmt.Errorf("%w: %s", ErrNoTable, it.Table)
		}
		if cv, ok := tb.rows.Get(it.Key); ok {
			if head := cv.(*chain).head.Load(); head != nil && head.version > t.snapshot {
				return 0, fmt.Errorf("%w: %s[%q]", ErrConflict, it.Table, it.Key)
			}
		}
	}
	v := t.e.version.Load() + 1
	if _, err := t.e.installRun([]*writeset.WriteSet{ws}, v); err != nil {
		return 0, err
	}
	t.e.version.Store(v)
	return v, nil
}
