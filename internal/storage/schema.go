package storage

import (
	"fmt"
	"strings"
)

// Column describes one table column.
type Column struct {
	Name string
	Type ColType
}

// IndexDef declares a single-column secondary index.
type IndexDef struct {
	Name   string
	Column string
}

// Schema describes a table: its columns, primary key, and secondary
// indexes. Primary key columns must not be NULL and identify the row
// for versioning, replication, and conflict detection.
type Schema struct {
	Table   string
	Columns []Column
	// Key lists primary key column names, in key order.
	Key []string
	// Indexes lists secondary indexes created with the table.
	Indexes []IndexDef

	// derived, populated by normalize:
	colIdx map[string]int
	keyIdx []int
}

// normalize validates the schema and fills the derived lookup fields.
func (s *Schema) normalize() error {
	if s.Table == "" {
		return fmt.Errorf("storage: schema with empty table name")
	}
	if strings.ContainsRune(s.Table, 0) {
		return fmt.Errorf("storage: table name %q contains NUL", s.Table)
	}
	if len(s.Columns) == 0 {
		return fmt.Errorf("storage: table %s has no columns", s.Table)
	}
	s.colIdx = make(map[string]int, len(s.Columns))
	for i, c := range s.Columns {
		if c.Name == "" {
			return fmt.Errorf("storage: table %s has an unnamed column", s.Table)
		}
		if _, dup := s.colIdx[c.Name]; dup {
			return fmt.Errorf("storage: table %s has duplicate column %s", s.Table, c.Name)
		}
		if c.Type < TInt || c.Type > TBool {
			return fmt.Errorf("storage: table %s column %s has invalid type", s.Table, c.Name)
		}
		s.colIdx[c.Name] = i
	}
	if len(s.Key) == 0 {
		return fmt.Errorf("storage: table %s has no primary key", s.Table)
	}
	s.keyIdx = make([]int, len(s.Key))
	for i, name := range s.Key {
		idx, ok := s.colIdx[name]
		if !ok {
			return fmt.Errorf("storage: table %s: key column %s does not exist", s.Table, name)
		}
		s.keyIdx[i] = idx
	}
	seen := map[string]bool{}
	for _, ix := range s.Indexes {
		if ix.Name == "" {
			return fmt.Errorf("storage: table %s has an unnamed index", s.Table)
		}
		if seen[ix.Name] {
			return fmt.Errorf("storage: table %s has duplicate index %s", s.Table, ix.Name)
		}
		seen[ix.Name] = true
		if _, ok := s.colIdx[ix.Column]; !ok {
			return fmt.Errorf("storage: table %s index %s: column %s does not exist", s.Table, ix.Name, ix.Column)
		}
	}
	return nil
}

// ColIndex returns the position of the named column, or -1.
func (s *Schema) ColIndex(name string) int {
	if i, ok := s.colIdx[name]; ok {
		return i
	}
	return -1
}

// NumColumns returns the number of columns.
func (s *Schema) NumColumns() int { return len(s.Columns) }

// KeyOf extracts and encodes the primary key of a row, as EncodeKey
// encodes the key columns' values.
func (s *Schema) KeyOf(row []any) (string, error) {
	var buf [64]byte
	dst := buf[:0]
	for i, ci := range s.keyIdx {
		v := row[ci]
		if v == nil {
			return "", fmt.Errorf("storage: table %s: NULL in primary key column %s", s.Table, s.Key[i])
		}
		dst = EncodeValue(dst, v)
	}
	return string(dst), nil
}

// CheckRow validates arity and column types.
func (s *Schema) CheckRow(row []any) error {
	if len(row) != len(s.Columns) {
		return fmt.Errorf("storage: table %s: row has %d values, want %d", s.Table, len(row), len(s.Columns))
	}
	for i, c := range s.Columns {
		if err := CheckValue(c.Type, row[i]); err != nil {
			return fmt.Errorf("storage: table %s column %s: %w", s.Table, c.Name, err)
		}
	}
	return nil
}

// clone returns a validated deep copy, the engine's own: it shares no
// slice with s, which the caller may go on using.
func (s *Schema) clone() (*Schema, error) {
	cp := &Schema{
		Table:   s.Table,
		Columns: append([]Column(nil), s.Columns...),
		Key:     append([]string(nil), s.Key...),
		Indexes: append([]IndexDef(nil), s.Indexes...),
	}
	if err := cp.normalize(); err != nil {
		return nil, err
	}
	return cp, nil
}
