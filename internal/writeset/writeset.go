// Package writeset defines the unit of replication: the set of records a
// transaction inserted, updated, or deleted, together with full row
// images so the set can be replayed on any replica as a refresh
// transaction (§IV of the paper).
//
// Writesets are also the unit of certification: two transactions
// write-conflict iff their writesets share a (table, key) pair.
package writeset

import (
	"fmt"
	"sort"
	"strings"

	"sconrep/internal/obs/dtrace"
)

// Op is the kind of modification an Item carries.
type Op uint8

const (
	// OpInsert adds a new row.
	OpInsert Op = iota + 1
	// OpUpdate replaces an existing row with the carried image.
	OpUpdate
	// OpDelete removes the row under Key.
	OpDelete
)

// String returns the SQL-ish name of the operation.
func (o Op) String() string {
	switch o {
	case OpInsert:
		return "INSERT"
	case OpUpdate:
		return "UPDATE"
	case OpDelete:
		return "DELETE"
	default:
		return fmt.Sprintf("Op(%d)", uint8(o))
	}
}

// Item is one modified record. Row is the full after-image of the row
// (nil for deletes), with values aligned to the table's column order.
// Column values are int64, float64, string, bool, or nil.
type Item struct {
	Table string
	Key   string
	Op    Op
	Row   []any
}

// WriteSet is the ordered list of records a transaction modified.
// Order matters only for replay determinism; conflict checks are
// set-based.
type WriteSet struct {
	Items []Item
	// Trace is the certifying span's context, attached by the
	// certifier when tracing is enabled so each replica's refresh
	// apply parents under the certification that shipped the writeset.
	// It rides here, not on the Refresh envelope, because the cloned
	// writeset is the one allocation already shared by every replica's
	// refresh copy: the envelopes that flow through mailbox rings,
	// reorder buffers, and group-apply batches by value stay exactly
	// as small as before tracing. Nil when tracing is off.
	Trace *dtrace.SpanContext
}

// Empty reports whether the transaction was read-only. A nil receiver
// is empty: partial refresh subscriptions ship version skip markers as
// refreshes with a nil writeset, and those envelopes flow through the
// same conflict and observability paths as real ones.
func (ws *WriteSet) Empty() bool { return ws == nil || len(ws.Items) == 0 }

// Len returns the number of modified records.
func (ws *WriteSet) Len() int {
	if ws == nil {
		return 0
	}
	return len(ws.Items)
}

// Tables returns the sorted set of tables the writeset touches.
func (ws *WriteSet) Tables() []string {
	if ws == nil {
		return nil
	}
	seen := make(map[string]bool, 4)
	var out []string
	for i := range ws.Items {
		t := ws.Items[i].Table
		if !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	sort.Strings(out)
	return out
}

// recordKey uniquely identifies a (table, row) pair across tables.
// Table names cannot contain NUL, so the encoding is injective.
func recordKey(table, key string) string { return table + "\x00" + key }

// Keys returns one opaque identifier per modified record, suitable for
// membership checks in conflict indexes.
func (ws *WriteSet) Keys() []string {
	if ws == nil {
		return nil
	}
	out := make([]string, len(ws.Items))
	for i := range ws.Items {
		out[i] = recordKey(ws.Items[i].Table, ws.Items[i].Key)
	}
	return out
}

// ConflictsWith reports whether the two writesets modify a common
// record. This is the write-write conflict predicate used both by the
// certifier and by the proxies' early certification.
func (ws *WriteSet) ConflictsWith(other *WriteSet) bool {
	if ws.Empty() || other.Empty() {
		return false
	}
	small, large := ws, other
	if len(small.Items) > len(large.Items) {
		small, large = large, small
	}
	set := make(map[string]struct{}, len(small.Items))
	for i := range small.Items {
		set[recordKey(small.Items[i].Table, small.Items[i].Key)] = struct{}{}
	}
	for i := range large.Items {
		if _, ok := set[recordKey(large.Items[i].Table, large.Items[i].Key)]; ok {
			return true
		}
	}
	return false
}

// Clone returns a deep copy; row slices are copied so the clone is
// safe to ship across goroutines while the source transaction may
// still mutate its buffers.
func (ws *WriteSet) Clone() *WriteSet {
	if ws == nil {
		return nil
	}
	out := &WriteSet{Items: make([]Item, len(ws.Items)), Trace: ws.Trace}
	for i, it := range ws.Items {
		cp := it
		if it.Row != nil {
			cp.Row = append([]any(nil), it.Row...)
		}
		out.Items[i] = cp
	}
	return out
}

// String renders the writeset compactly, for logs and tests.
func (ws *WriteSet) String() string {
	if ws.Empty() {
		return "{}"
	}
	var b strings.Builder
	b.WriteByte('{')
	for i := range ws.Items {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s %s[%q]", ws.Items[i].Op, ws.Items[i].Table, ws.Items[i].Key)
	}
	b.WriteByte('}')
	return b.String()
}

// Index is a point-in-time conflict index over many writesets, keyed by
// record. The certifier maintains one covering the writesets committed
// inside its certification window.
type Index struct {
	// byRecord maps record key to the latest commit version that
	// modified the record.
	byRecord map[string]uint64
}

// NewIndex returns an empty conflict index.
func NewIndex() *Index {
	return &Index{byRecord: make(map[string]uint64)}
}

// Add registers that ws committed at version v.
func (ix *Index) Add(ws *WriteSet, v uint64) {
	for i := range ws.Items {
		k := recordKey(ws.Items[i].Table, ws.Items[i].Key)
		if cur, ok := ix.byRecord[k]; !ok || v > cur {
			ix.byRecord[k] = v
		}
	}
}

// ConflictsAfter reports whether any record in ws was modified by a
// transaction that committed at a version strictly greater than
// snapshot — the GSI certification test.
func (ix *Index) ConflictsAfter(ws *WriteSet, snapshot uint64) bool {
	for i := range ws.Items {
		k := recordKey(ws.Items[i].Table, ws.Items[i].Key)
		if v, ok := ix.byRecord[k]; ok && v > snapshot {
			return true
		}
	}
	return false
}

// Forget drops records whose last modification is at or below v,
// bounding the index to the active certification window.
func (ix *Index) Forget(v uint64) {
	for k, ver := range ix.byRecord {
		if ver <= v {
			delete(ix.byRecord, k)
		}
	}
}

// Len returns the number of records tracked.
func (ix *Index) Len() int { return len(ix.byRecord) }
