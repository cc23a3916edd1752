package storage

import (
	"fmt"
	"slices"
	"strings"
)

// Loader collects a bulk load — a workload's initial data — as table
// images and builds an empty engine from them in one step (Build). It
// is what a loader writes to instead of a Txn: a row costs its key
// encoding and a slot in its table's image, and no lock, pending
// write, chain or tree until Build.
//
// Versions follow the commits a per-table load would have made: each
// Commit gives the rows inserted since the previous Commit the next
// version, so the built engine reads exactly as one loaded by Insert
// and CommitLocal in the same groups would. A Loader is used from one
// goroutine.
type Loader struct {
	tables  map[string]*loadTable
	order   []*loadTable // in the order NewLoader was given them
	last    *loadTable   // the table of the latest Insert
	version uint64       // versions Commit has given out
	dirty   bool         // rows were inserted since the last Commit
}

// loadTable is one table's image under construction.
type loadTable struct {
	schema *Schema
	rows   []VersionedRow
	// sorted is whether rows arrived in strictly ascending key order,
	// the order Build needs: an out-of-order or repeated key clears it.
	sorted bool
}

// NewLoader returns a loader for the given tables, each schema
// validated once, as CreateTable validates it, into a copy the loader
// keeps.
func NewLoader(schemas ...*Schema) (*Loader, error) {
	l := &Loader{tables: make(map[string]*loadTable, len(schemas))}
	for _, s := range schemas {
		cp, err := s.clone()
		if err != nil {
			return nil, err
		}
		if _, dup := l.tables[cp.Table]; dup {
			return nil, fmt.Errorf("storage: load: table %s declared twice", cp.Table)
		}
		lt := &loadTable{schema: cp, sorted: true}
		l.tables[cp.Table] = lt
		l.order = append(l.order, lt)
	}
	return l, nil
}

// Grow makes room in the named table for n more rows, so that a
// loader that knows its row counts fills each table's image without
// regrowing it. An unknown table is ignored: Insert reports it.
func (l *Loader) Grow(table string, n int) {
	if lt, ok := l.tables[table]; ok {
		lt.rows = slices.Grow(lt.rows, n)
	}
}

// Insert adds a row to the named table at the version the next Commit
// gives out. The row is schema-checked and kept, not copied, as every
// install keeps the row it is handed: the caller must not write into
// it afterwards. A repeated key is reported by Build.
func (l *Loader) Insert(table string, row []any) error {
	lt := l.last
	if lt == nil || lt.schema.Table != table {
		var ok bool
		if lt, ok = l.tables[table]; !ok {
			return fmt.Errorf("%w: %s", ErrNoTable, table)
		}
		l.last = lt
	}
	if err := lt.schema.CheckRow(row); err != nil {
		return err
	}
	key, err := lt.schema.KeyOf(row)
	if err != nil {
		return err
	}
	if n := len(lt.rows); n > 0 && key <= lt.rows[n-1].Key {
		lt.sorted = false
	}
	lt.rows = append(lt.rows, VersionedRow{Key: key, Version: l.version + 1, Row: row})
	l.dirty = true
	return nil
}

// Commit closes the current version: the rows inserted since the
// previous Commit carry it. Like CommitLocal on a transaction that
// wrote nothing, a Commit with no rows since the last one gives out no
// version.
func (l *Loader) Commit() {
	if l.dirty {
		l.version++
		l.dirty = false
	}
}

// Build makes the empty engine e hold every committed row, at the
// version of the last Commit (Engine.Build). A table whose rows arrived
// out of key order is sorted first; a key inserted twice into one table
// fails with ErrDuplicateKey, and rows inserted after the last Commit
// fail the build. A table with no rows is built empty. On error e is
// left as it was.
func (l *Loader) Build(e *Engine) error {
	if l.dirty {
		return fmt.Errorf("storage: load: rows inserted after the last commit (version %d)", l.version)
	}
	imgs := make([]TableImage, len(l.order))
	for i, lt := range l.order {
		if !lt.sorted {
			slices.SortFunc(lt.rows, func(a, b VersionedRow) int { return strings.Compare(a.Key, b.Key) })
			for j := 1; j < len(lt.rows); j++ {
				if lt.rows[j].Key == lt.rows[j-1].Key {
					return fmt.Errorf("%w: %s[%q]", ErrDuplicateKey, lt.schema.Table, lt.rows[j].Key)
				}
			}
			lt.sorted = true
		}
		imgs[i] = TableImage{Schema: lt.schema, Rows: lt.rows}
	}
	return e.Build(l.version, imgs)
}
