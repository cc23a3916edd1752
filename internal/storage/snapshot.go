package storage

import (
	"fmt"
	"sort"

	"sconrep/internal/writeset"
)

// scanChunk is how many keys ScanVisible collects per table-lock
// acquisition. Small enough that concurrent installers are never
// starved for long; large enough that lock traffic is negligible.
const scanChunk = 512

// ScanVisible calls fn for every primary key with a live (non-deleted)
// version at or below snapshot, in key order, with that version's
// commit version and row image. The row slice is the engine's own
// immutable version image and must not be mutated.
//
// This is the fuzzy-checkpoint scan: it holds only the per-table read
// lock, released every scanChunk keys, so commits and installs (which
// need e.mu, exclusively or shared) proceed underneath it.
// The result is still a consistent snapshot at `snapshot`: versions
// installed during the scan are above it and filtered out by the
// visibility check, and Vacuum only removes versions invisible at the
// replica watermark, which the caller keeps at or below snapshot.
func (e *Engine) ScanVisible(tableName string, snapshot uint64, fn func(key string, version uint64, row []any) error) error {
	e.mu.RLock()
	t, ok := e.tables[tableName]
	e.mu.RUnlock()
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoTable, tableName)
	}
	type hit struct {
		key     string
		version uint64
		row     []any
	}
	chunk := make([]hit, 0, scanChunk)
	lo := ""
	for {
		chunk = chunk[:0]
		t.mu.RLock()
		it := t.rows.Scan(lo, "")
		for it.Next() {
			if v := it.Value().(*chain).visibleAt(snapshot); v != nil {
				chunk = append(chunk, hit{key: it.Key(), version: v.version, row: v.row})
			}
			lo = it.Key() + "\x00"
			if len(chunk) == scanChunk {
				break
			}
		}
		more := len(chunk) == scanChunk
		t.mu.RUnlock()
		for i := range chunk {
			if err := fn(chunk[i].key, chunk[i].version, chunk[i].row); err != nil {
				return err
			}
		}
		if !more {
			return nil
		}
	}
}

// TablesSorted returns all table names in lexical order — the
// deterministic iteration order checkpoint encoding requires.
func (e *Engine) TablesSorted() []string {
	names := e.Tables()
	sort.Strings(names)
	return names
}

// RestoreRow installs a row image at the given version, bypassing the
// commit-order check. Checkpoint restore only: the engine must not be
// serving traffic, keys must arrive at most once, and the caller must
// finish with RestoreVersion. Row images are schema-checked so a
// corrupt checkpoint cannot plant malformed rows.
func (e *Engine) RestoreRow(tableName, key string, row []any, version uint64) error {
	ws := writeset.WriteSet{Items: []writeset.Item{{Table: tableName, Key: key, Op: writeset.OpUpdate, Row: row}}}
	e.mu.RLock()
	defer e.mu.RUnlock()
	_, err := e.installRun([]*writeset.WriteSet{&ws}, version)
	return err
}

// RestoreVersion force-sets the published version after a checkpoint
// restore. Restore only; it is not a commit and performs no ordering
// checks.
func (e *Engine) RestoreVersion(v uint64) {
	e.version.Store(v)
}
