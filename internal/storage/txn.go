package storage

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"sconrep/internal/btree"
	"sconrep/internal/writeset"
)

// Txn is a snapshot-isolated transaction. Reads observe the database
// as of the snapshot version plus the transaction's own buffered
// writes; writes are buffered until commit.
//
// A Txn must be used from a single goroutine.
//
// Rows are shared, not copied. Every row a read hands out — from Get,
// ScanRange, ScanAll, ScanIndexEq, AppendIndexIn or a Cursor — is the
// stored slice itself: a committed version's row in its chain, or the
// transaction's own pending image. Neither is ever written again (a
// chain row is immutable once installed, vacuum only unlinks it; a later
// write by this transaction replaces the pending image with a new
// slice), so a caller may keep a row as long as it likes, across commits
// and after the transaction ends. In exchange the caller must not write
// into it: copy first, as the SQL layer's UPDATE does. Insert and Update
// copy the row they are given, so the caller's slice stays the caller's.
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
	return vr.row, true, nil
}

// Get returns the row under the encoded primary key, as visible to
// this transaction. The row is shared (see Txn): read it, do not write
// into it.
func (t *Txn) Get(table, key string) ([]any, bool, error) {
	if t.finished {
		return nil, false, ErrTxnFinished
	}
	if pw := t.pending(table, key); pw != nil {
		if pw.op == writeset.OpDelete {
			return nil, false, nil
		}
		return pw.row, true, nil
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

// KV is a scan result: the encoded primary key and the row, shared
// like every row a read returns (see Txn).
type KV struct {
	Key string
	Row []any
}

// Cursor chunk sizes: the first read of the tree takes few rows, so a
// scan that stops early (ORDER BY key LIMIT 5) pays for few; each later
// read takes four times as many, up to a bound that keeps the table
// lock short.
const (
	firstChunk = 16
	maxChunk   = 1024
)

// Cursor iterates the rows visible to a transaction, with the
// transaction's own pending writes merged in: over a range of encoded
// primary keys, in key order or its reverse, or — opened by IndexCursor —
// over a secondary index in value order. It reads the tree a chunk at a
// time and holds no lock between calls, so the caller may go on using
// the transaction (Get, other cursors) while it iterates, and a scan
// abandoned early costs only the chunks it read. A write by the
// transaction invalidates its open cursors. Rows are shared (see Txn).
type Cursor struct {
	t      *Txn
	table  string
	index  string // the index an index walk reads; "" scans the rows
	col    int    // the walked index's column
	lo, hi string // the part of the range not read yet, of keys or index entries
	desc   bool
	buf    []KV     // committed rows of the current chunk, own-written keys left out
	at     []string // on an index walk that merges own writes, buf's index entries
	i      int
	more   bool    // the tree may hold keys beyond buf
	own    []posKV // this transaction's live writes in the range, in scan order
	cur    KV
	err    error
}

// posKV is an own write with its position in the cursor's order: its
// key, or on an index walk its index entry.
type posKV struct {
	pos string
	KV
}

// Cursor opens a scan of the rows visible to this transaction with
// encoded primary keys in [lo, hi), ascending, or descending when desc
// is set. Empty lo scans from the start; empty hi scans to the end.
func (t *Txn) Cursor(table, lo, hi string, desc bool) *Cursor {
	c := &Cursor{t: t, table: table, lo: lo, hi: hi, desc: desc, more: true}
	if t.finished {
		c.err, c.more = ErrTxnFinished, false
		return c
	}
	for key, pw := range t.writes[table] {
		if pw.removed || pw.op == writeset.OpDelete || key < lo || (hi != "" && key >= hi) {
			continue
		}
		c.own = append(c.own, posKV{pos: key, KV: KV{Key: key, Row: pw.row}})
	}
	c.sortOwn()
	return c
}

// IndexCursor opens a walk of every row visible to this transaction in
// the order of the named secondary index: by the indexed column's value,
// NULL first, and by encoded primary key among equal values. A row
// appears once, at the value its visible version carries.
func (t *Txn) IndexCursor(table, index string) *Cursor {
	c := &Cursor{t: t, table: table, index: index, more: true}
	if t.finished {
		c.err, c.more = ErrTxnFinished, false
		return c
	}
	t.e.mu.RLock()
	tb, ok := t.e.tables[table]
	var ix *secIndex
	if ok {
		tb.mu.RLock()
		ix = tb.indexes[index]
		tb.mu.RUnlock()
	}
	t.e.mu.RUnlock()
	switch {
	case !ok:
		c.err, c.more = fmt.Errorf("%w: %s", ErrNoTable, table), false
		return c
	case ix == nil:
		c.err, c.more = fmt.Errorf("%w: %s on %s", ErrNoIndex, index, table), false
		return c
	}
	c.col = ix.col
	for key, pw := range t.writes[table] {
		if !pw.removed && pw.op != writeset.OpDelete {
			c.own = append(c.own, posKV{pos: entryKey(pw.row[c.col], key), KV: KV{Key: key, Row: pw.row}})
		}
	}
	c.sortOwn()
	return c
}

// sortOwn puts the own writes, collected in map order, in scan order.
func (c *Cursor) sortOwn() {
	sort.Slice(c.own, func(i, j int) bool { return (c.own[i].pos < c.own[j].pos) != c.desc })
}

// fill reads the next chunk of committed rows under the table lock and
// moves the unread range past it.
func (c *Cursor) fill() {
	n := 4 * cap(c.buf)
	if n < firstChunk {
		n = firstChunk
	} else if n > maxChunk {
		n = maxChunk
	}
	if n > cap(c.buf) {
		c.buf = make([]KV, 0, n)
	}
	c.buf, c.at, c.i, c.more = c.buf[:0], c.at[:0], 0, false

	t := c.t
	t.e.mu.RLock()
	defer t.e.mu.RUnlock()
	tb, ok := t.e.tables[c.table]
	if !ok {
		c.err = fmt.Errorf("%w: %s", ErrNoTable, c.table)
		return
	}
	written := t.writes[c.table]
	tb.mu.RLock()
	defer tb.mu.RUnlock()
	if c.index != "" {
		c.fillIndex(tb.indexes[c.index], written)
		return
	}
	var it *btree.Iter
	if c.desc {
		it = tb.rows.Descend(c.lo, c.hi)
	} else {
		it = tb.rows.Scan(c.lo, c.hi)
	}
	last := ""
	for it.Next() {
		key := it.Key()
		if len(c.buf) == cap(c.buf) {
			// Chunk full with keys left: the next chunk starts at key.
			if c.desc {
				c.hi = last
			} else {
				c.lo = key
			}
			c.more = true
			return
		}
		last = key
		if pw, ok := written[key]; ok && !pw.removed {
			continue // own write overrides; merged from c.own
		}
		if vr := it.Value().(*chain).visibleAt(t.snapshot); vr != nil {
			c.buf = append(c.buf, KV{Key: key, Row: vr.row})
		}
	}
}

// fillIndex is fill on an index walk: it reads entries from c.lo on and
// keeps the row at an entry only if the version the transaction sees
// carries the entry's value — the index is a superset over versions, and
// a row whose value changed has an entry at each. Encodings are
// prefix-free, so that is the entry starting with the version's value
// encoded, and the rest of the entry is the row's key. Caller holds the
// table lock; IndexCursor found the index, and indexes are never dropped.
func (c *Cursor) fillIndex(ix *secIndex, written map[string]*pendingWrite) {
	var buf [64]byte
	it := ix.tree.Scan(c.lo, "")
	for it.Next() {
		entry := it.Key()
		if len(c.buf) == cap(c.buf) {
			c.lo, c.more = entry, true
			return
		}
		vr := it.Value().(*ixEntry).ch.visibleAt(c.t.snapshot)
		if vr == nil {
			continue
		}
		val := EncodeValue(buf[:0], vr.row[c.col])
		if len(entry) < len(val) || entry[:len(val)] != string(val) {
			continue
		}
		key := entry[len(val):]
		if pw, ok := written[key]; ok && !pw.removed {
			continue // own write overrides; merged from c.own
		}
		c.buf = append(c.buf, KV{Key: key, Row: vr.row})
		if len(c.own) > 0 {
			c.at = append(c.at, entry)
		}
	}
}

// Next advances to the next visible row and reports whether there is
// one; after it returns false, Err tells whether the scan failed.
func (c *Cursor) Next() bool {
	if c.i == len(c.buf) && c.more {
		c.fill()
	}
	if c.err != nil {
		return false
	}
	if c.i < len(c.buf) && (len(c.own) == 0 || c.bufFirst()) {
		c.cur = c.buf[c.i]
		c.i++
		return true
	}
	if len(c.own) == 0 {
		return false
	}
	c.cur, c.own = c.own[0].KV, c.own[1:]
	return true
}

// bufFirst reports whether the next committed row comes before the next
// own write.
func (c *Cursor) bufFirst() bool {
	at := c.buf[c.i].Key
	if c.index != "" {
		at = c.at[c.i]
	}
	return (at < c.own[0].pos) != c.desc
}

// KV returns the row at the current position.
func (c *Cursor) KV() KV { return c.cur }

// Err returns the error that ended the scan, if any.
func (c *Cursor) Err() error { return c.err }

// ScanRange returns the rows visible to this transaction with encoded
// primary keys in [lo, hi), in key order. Empty lo scans from the
// start; empty hi scans to the end. The rows are shared (see Txn).
func (t *Txn) ScanRange(table, lo, hi string) ([]KV, error) {
	var out []KV
	c := t.Cursor(table, lo, hi, false)
	for c.Next() {
		out = append(out, c.cur)
	}
	return out, c.err
}

// ScanAll returns every row visible to this transaction, in key order.
func (t *Txn) ScanAll(table string) ([]KV, error) {
	return t.ScanRange(table, "", "")
}

// ScanIndexEq returns the visible rows whose indexed column equals
// val, using the named secondary index, in primary-key order. The rows
// are shared (see Txn).
func (t *Txn) ScanIndexEq(table, index string, val any) ([]KV, error) {
	return t.AppendIndexIn(nil, table, index, []any{val}, "", "")
}

// AppendIndexIn appends to dst the rows visible to this transaction
// whose indexed column equals one of vals (NULL matches nothing), found
// through the named secondary index, with encoded primary keys in
// [lo, hi) — empty lo or hi leaves that side open — and returns the
// extended slice. The appended rows are in primary-key order, each
// once, with the transaction's own writes merged in, all read under one
// table lock. The rows are shared (see Txn).
func (t *Txn) AppendIndexIn(dst []KV, table, index string, vals []any, lo, hi string) ([]KV, error) {
	if t.finished {
		return dst, ErrTxnFinished
	}
	start := len(dst)
	t.e.mu.RLock()
	tb, ok := t.e.tables[table]
	if !ok {
		t.e.mu.RUnlock()
		return dst, fmt.Errorf("%w: %s", ErrNoTable, table)
	}
	tb.mu.RLock()
	ix, ok := tb.indexes[index]
	if !ok {
		tb.mu.RUnlock()
		t.e.mu.RUnlock()
		return dst, fmt.Errorf("%w: %s on %s", ErrNoIndex, index, table)
	}
	col := ix.col
	written := t.writes[table]
	var buf [64]byte
	for _, val := range vals {
		if val == nil {
			continue
		}
		// An entry is the value's encoding followed by the row's key;
		// encodings are prefix-free, so the value's entries are one run.
		prefix := EncodeValue(buf[:0], val)
		it := ix.tree.Scan(string(append(prefix, lo...)), "")
		for it.Next() {
			entry := it.Key()
			if len(entry) < len(prefix) || entry[:len(prefix)] != string(prefix) {
				break
			}
			pk := entry[len(prefix):]
			if hi != "" && pk >= hi {
				break
			}
			if pw, ok := written[pk]; ok && !pw.removed {
				continue // overlaid below
			}
			vr := it.Value().(*ixEntry).ch.visibleAt(t.snapshot)
			// The index is a superset over versions: re-check the value.
			if vr != nil && ValuesEqual(vr.row[col], val) {
				dst = append(dst, KV{Key: pk, Row: vr.row})
			}
		}
	}
	tb.mu.RUnlock()
	t.e.mu.RUnlock()

	for key, pw := range written {
		if pw.removed || pw.op == writeset.OpDelete || key < lo || (hi != "" && key >= hi) {
			continue
		}
		for _, val := range vals {
			if val != nil && ValuesEqual(pw.row[col], val) {
				dst = append(dst, KV{Key: key, Row: pw.row})
				break
			}
		}
	}

	// Each value's rows came in key order; a second value or an own write
	// may have broken it, and only a repeated value repeats a row.
	out := dst[start:]
	for i := 1; i < len(out); i++ {
		if out[i-1].Key >= out[i].Key {
			slices.SortFunc(out, func(a, b KV) int { return strings.Compare(a.Key, b.Key) })
			out = slices.CompactFunc(out, func(a, b KV) bool { return a.Key == b.Key })
			return dst[:start+len(out)], nil
		}
	}
	return dst, nil
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
