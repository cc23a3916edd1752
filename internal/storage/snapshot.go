package storage

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// scanChunk is how many keys ScanVisible collects per table-lock
// acquisition. Small enough that concurrent installers are never
// starved for long; large enough that lock traffic is negligible.
const scanChunk = 512

// ScanVisible calls fn for every primary key with a live (non-deleted)
// version at or below the transaction's snapshot, in key order, with
// that version's commit version and row image: the committed state the
// snapshot reads, without the transaction's own writes. The row slice
// is the engine's own immutable version image and must not be mutated.
//
// This is the fuzzy-checkpoint scan: it holds only the per-table read
// lock, released every scanChunk keys, so commits and installs (which
// need e.mu, exclusively or shared) proceed underneath it. The result
// is still a consistent snapshot: versions installed during the scan
// are above it and filtered out by the visibility check, and the
// transaction's pin on its snapshot keeps every install from cutting a
// version the scan can see.
func (t *Txn) ScanVisible(tableName string, fn func(key string, version uint64, row []any) error) error {
	if t.finished {
		return ErrTxnFinished
	}
	e := t.e
	e.mu.RLock()
	tb, ok := e.tables[tableName]
	e.mu.RUnlock()
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoTable, tableName)
	}
	chunk := make([]VersionedRow, 0, scanChunk)
	lo := ""
	for {
		chunk = chunk[:0]
		tb.mu.RLock()
		it := tb.rows.Scan(lo, "")
		for it.Next() {
			if v := it.Value().(*chain).visibleAt(t.snapshot); v != nil {
				chunk = append(chunk, VersionedRow{Key: it.Key(), Version: v.version, Row: v.row})
			}
			if len(chunk) == scanChunk {
				lo = it.Key() + "\x00"
				break
			}
		}
		more := len(chunk) == scanChunk
		tb.mu.RUnlock()
		for i := range chunk {
			if err := fn(chunk[i].Key, chunk[i].Version, chunk[i].Row); err != nil {
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

// VersionedRow is one live row of a TableImage: its encoded primary
// key, the version that wrote it, and its image.
type VersionedRow struct {
	Key     string
	Version uint64
	Row     []any
}

// TableImage is one table's committed state at one version, the unit
// Build takes: its schema, the newest version that wrote it, and its
// live rows in ascending key order.
type TableImage struct {
	Schema *Schema
	// LastWrite is the newest version that wrote the table. A delete
	// counts, so it may lie above every row's version; Build keeps the
	// larger of it and the newest row's, so 0 leaves it to the rows.
	LastWrite uint64
	Rows      []VersionedRow
}

// Image returns the committed state the transaction's snapshot reads,
// in the form Build takes: every table in lexical name order, each
// with the rows ScanVisible finds and the version TableVersionsAt
// reports. The schemas and rows are the engine's own, shared like every
// row a read returns (see Txn).
func (t *Txn) Image() ([]TableImage, error) {
	names := t.e.TablesSorted()
	last := t.e.TableVersionsAt(names, t.snapshot)
	imgs := make([]TableImage, len(names))
	for i, name := range names {
		img := &imgs[i]
		img.LastWrite = last[i]
		t.e.mu.RLock()
		tb := t.e.tables[name] // tables are never dropped
		tb.mu.RLock()
		// Every row the snapshot sees has a chain in the tree.
		img.Schema, img.Rows = tb.schema, make([]VersionedRow, 0, tb.rows.Len())
		tb.mu.RUnlock()
		t.e.mu.RUnlock()
		err := t.ScanVisible(name, func(key string, version uint64, row []any) error {
			img.Rows = append(img.Rows, VersionedRow{Key: key, Version: version, Row: row})
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return imgs, nil
}

// Build makes an empty engine (no table, version 0) hold imgs at
// version at, then publishes at, once. Each row becomes its chain's only
// version; each table's lastWrite is restored, so TableVersionsAt reads
// what it read where the image was taken; the row tree and each
// secondary index are filled in key order, the ascending load that
// leaves every leaf but the last full. Checkpoint restore, a bulk load
// (Loader.Build) and Cluster.LoadData's copies of replica 0 all make
// engines this way.
//
// Rows must ascend strictly by key, at versions no higher than at, and
// each is schema-checked, so a corrupt image cannot plant a malformed
// row; on any error the engine is left as it was. Row images and key
// strings are kept, not copied: engines built from one image share
// them, and nobody may write into them afterwards (the rule every
// install entry point states). Everything else — version rows, chains,
// trees, index entries — is each engine's own, so what one engine
// links, cuts or drops no other sees.
func (e *Engine) Build(at uint64, imgs []TableImage) error {
	tables := make(map[string]*table, len(imgs))
	for _, img := range imgs {
		t, err := buildTable(img, at)
		if err != nil {
			return err
		}
		if _, dup := tables[t.schema.Table]; dup {
			return fmt.Errorf("storage: build: table %s appears twice", t.schema.Table)
		}
		tables[t.schema.Table] = t
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.tables) > 0 || e.version.Load() > 0 {
		return fmt.Errorf("storage: build into an engine with %d tables at version %d", len(e.tables), e.version.Load())
	}
	e.tables = tables
	e.version.Store(at)
	return nil
}

// buildTable is Build's work on one table. Version rows, chains and
// index entries each come from one table-sized slab, as installRun
// carves a run's version rows from one.
func buildTable(img TableImage, at uint64) (*table, error) {
	s, err := img.Schema.clone()
	if err != nil {
		return nil, err
	}
	t := newTable(s)
	rows := img.Rows
	vers := make([]verRow, len(rows))
	chains := make([]chain, len(rows))
	last := img.LastWrite
	for i, r := range rows {
		switch {
		case i > 0 && r.Key <= rows[i-1].Key:
			return nil, fmt.Errorf("storage: build: table %s: keys out of order at row %d", s.Table, i)
		case r.Version > at:
			return nil, fmt.Errorf("storage: build: table %s: row version %d above %d", s.Table, r.Version, at)
		}
		if err := s.CheckRow(r.Row); err != nil {
			return nil, err
		}
		v := &vers[i]
		v.version, v.row = r.Version, r.Row
		chains[i].head.Store(v)
		last = max(last, r.Version)
	}
	if last > at {
		return nil, fmt.Errorf("storage: build: table %s last written at %d, above %d", s.Table, last, at)
	}
	t.lastWrite.Store(last)
	for i, r := range rows {
		t.rows.Set(r.Key, &chains[i])
	}
	type entry struct {
		key string
		ent *ixEntry
	}
	var sorted []entry
	if len(t.indexes) > 0 {
		sorted = make([]entry, len(rows))
	}
	for _, ix := range t.indexes {
		ents := make([]ixEntry, len(rows))
		for i, r := range rows {
			ents[i] = ixEntry{n: 1, ch: &chains[i]}
			sorted[i] = entry{key: entryKey(r.Row[ix.col], r.Key), ent: &ents[i]}
		}
		slices.SortFunc(sorted, func(a, b entry) int { return strings.Compare(a.key, b.key) })
		for _, en := range sorted {
			ix.tree.Set(en.key, en.ent)
		}
	}
	return t, nil
}
