package sql

import (
	"fmt"
	"strings"
	"sync"

	"sconrep/internal/storage"
)

// This file plans statements: it binds every expression to the tables'
// columns, picks the base table's access path and each join's probe,
// decides where each conjunct of WHERE is applied, and how ORDER BY and
// LIMIT are met. There is no cost model and no join reordering: tables
// are joined in the order written, and every choice follows from the
// statement's shape, the schemas and the constants in hand — including
// the two that read ahead of the nested loop: the filtered build (see
// filteredBuilds) reads a joined table before its first probe, and the
// keyed fetch (see keyedFetch) then reads only the base rows that build
// can match. Both keep every tuple in the order the scan and its probes
// would have produced it.
//
// The access path recognizes sargable conjuncts of the form
// <column> <op> <constant> and picks, in order of preference,
//
//  1. a primary-key point lookup (equality on every key column),
//  2. a primary-key range scan (equality/range on a key prefix),
//  3. a secondary-index equality lookup,
//  4. a full scan,
//
// and a SELECT whose base would be a full scan reads it instead by
//
//  5. an index walk in value order, when that order is ORDER BY's and
//     the scan stops at a LIMIT (see indexOrder), or
//  6. no scan of its own: a walk of the joined table's index drives the
//     join and probes the base by primary key, when ORDER BY … LIMIT
//     names that index's column (see joinOrder).
//
// Bounds are conservative (they may admit extra rows); the executor
// always re-applies the full predicate, so the planner affects cost,
// never which rows come back or in what order.
//
// A plan holds no parameter value, so a prepared statement keeps it
// from one execution to the next (Prepared): a sarg names the constant
// it compares with, and each execution evaluates those constants
// (bindConsts) and fills the chosen path's key and bounds from them
// (tablePlan.resolve). Every choice the parameters can sway follows
// from three things alone — how many there are, which constants are
// usable (evaluate without error, are not NULL and coerce to their
// column's type) and whether kindOf says the predicate may fail — so a
// plan is reused exactly while all three come out as they did when it
// was made, and its tables' schemas are still the engine's
// (tablesPlan.fits).

// accessPath describes how to fetch the candidate rows of one table. A
// plan's paths carry only kind and index; the values are an
// execution's (tablePlan.resolve).
type accessPath struct {
	kind      pathKind
	pointKey  string // kindPoint
	lo, hi    string // kindRange; "" = unbounded
	indexName string // kindIndexEq, kindIndexOrder
	indexVal  any    // kindIndexEq
}

// shape is the path without its values: what a plan keeps of it.
func (a accessPath) shape() accessPath {
	return accessPath{kind: a.kind, indexName: a.indexName}
}

type pathKind uint8

const (
	kindFull pathKind = iota
	kindPoint
	kindRange
	kindIndexEq
	kindIndexOrder
)

func (k pathKind) String() string {
	switch k {
	case kindFull:
		return "full-scan"
	case kindPoint:
		return "pk-point"
	case kindRange:
		return "pk-range"
	case kindIndexEq:
		return "index-eq"
	case kindIndexOrder:
		return "index-order"
	default:
		return "?"
	}
}

// via names a path with the index it reads.
func (a accessPath) via() string {
	if a.kind == kindIndexEq || a.kind == kindIndexOrder {
		return fmt.Sprintf("%s(%s)", a.kind, a.indexName)
	}
	return a.kind.String()
}

// sarg is a sargable condition on one table, extracted from a conjunct
// of WHERE: a column compared with a constant.
type sarg struct {
	off int    // column position
	op  string // "=", "<", "<=", ">", ">="
	// konst indexes the constant in the plan's konsts and in an
	// execution's env.consts.
	konst int
}

// konst is the constant side of a sarg — literals, placeholders and
// arithmetic over them — and the type of the column it is compared
// with, to which each execution coerces its value.
type konst struct {
	expr Expr
	typ  storage.ColType
}

// splitConjuncts flattens a WHERE tree into AND-ed conjuncts.
func splitConjuncts(e Expr, out []Expr) []Expr {
	if b, ok := e.(*BinOp); ok && b.Op == "AND" {
		out = splitConjuncts(b.L, out)
		return splitConjuncts(b.R, out)
	}
	return append(out, e)
}

// noTable is lastTable's answer for an expression without columns.
const noTable = -1

// lastTable returns the position of the last table, in join order, that
// a bound expression reads: the first point at which it can be
// evaluated.
func lastTable(e Expr) int {
	switch x := e.(type) {
	case *slot:
		return x.tab
	case *Not:
		return lastTable(x.E)
	case *IsNull:
		return lastTable(x.E)
	case *Between:
		return max(lastTable(x.E), lastTable(x.Lo), lastTable(x.Hi))
	case *BinOp:
		return max(lastTable(x.L), lastTable(x.R))
	case *aggSlot:
		if !x.star {
			return lastTable(x.arg)
		}
	}
	return noTable
}

// sargable reports whether a bound conjunct has the form <column> <op>
// <constant>, and returns its parts: the column, the operator with the
// column on the left, and the constant — an expression that reads no
// column. Whether that constant is usable is each execution's to say.
func sargable(e Expr) (col *slot, op string, val Expr, ok bool) {
	switch x := e.(type) {
	case *BinOp:
		col, colOK := x.L.(*slot)
		val, op = x.R, x.Op
		if !colOK {
			// constant <op> column: flip.
			col, colOK = x.R.(*slot)
			val, op = x.L, flipOp(op)
		}
		if !colOK || lastTable(val) != noTable {
			return nil, "", nil, false
		}
		switch op {
		case "=", "<", "<=", ">", ">=":
			return col, op, val, true
		}
	case *Between:
		// BETWEEN contributes its lower bound; the upper bound is
		// re-checked by the residual filter.
		if col, colOK := x.E.(*slot); colOK && lastTable(x.Lo) == noTable {
			return col, ">=", x.Lo, true
		}
	}
	return nil, "", nil, false
}

func flipOp(op string) string {
	switch op {
	case "<":
		return ">"
	case "<=":
		return ">="
	case ">":
		return "<"
	case ">=":
		return "<="
	default:
		return op
	}
}

// eqValue returns the constant the conditions pin column off to, from
// the usable constants in consts (coerced to the column's type; nil
// where unusable), or nil.
func eqValue(sargs []sarg, consts []any, off int) any {
	var v any
	for _, s := range sargs {
		if s.op == "=" && s.off == off && consts[s.konst] != nil {
			v = consts[s.konst]
		}
	}
	return v
}

// choosePath picks the access path for one table given the sargable
// conditions on it and the values of their constants. Which usable
// constants there are decides the path's kind and index; their values
// only its key or bounds.
func choosePath(schema *storage.Schema, sargs []sarg, consts []any) accessPath {
	if len(sargs) == 0 {
		return accessPath{kind: kindFull}
	}

	// PK prefix: equality on leading key columns. All of them is a point
	// lookup.
	var buf [4]any
	prefix := buf[:0]
	for _, kc := range schema.Key {
		v := eqValue(sargs, consts, schema.ColIndex(kc))
		if v == nil {
			break
		}
		prefix = append(prefix, v)
	}
	if len(prefix) == len(schema.Key) {
		return accessPath{kind: kindPoint, pointKey: storage.EncodeKey(prefix...)}
	}

	// Otherwise the prefix bounds a range, narrowed by range conditions
	// on the next key column.
	var lo, hi string
	if len(prefix) > 0 {
		base := storage.EncodeKey(prefix...)
		lo, hi = base, base+"\xff"
	}
	next := schema.ColIndex(schema.Key[len(prefix)])
	for _, c := range sargs {
		cv := consts[c.konst]
		if c.off != next || c.op == "=" || cv == nil {
			continue
		}
		bound := storage.EncodeKey(append(prefix[:len(prefix):len(prefix)], cv)...)
		switch c.op {
		case ">", ">=":
			if bound > lo {
				lo = bound
			}
		case "<", "<=":
			b := bound + "\xff"
			if hi == "" || b < hi {
				hi = b
			}
		}
	}
	if lo != "" || hi != "" {
		return accessPath{kind: kindRange, lo: lo, hi: hi}
	}

	// Secondary-index equality.
	for _, def := range schema.Indexes {
		if v := eqValue(sargs, consts, schema.ColIndex(def.Column)); v != nil {
			return accessPath{kind: kindIndexEq, indexName: def.Name, indexVal: v}
		}
	}
	return accessPath{kind: kindFull}
}

// resolve returns the table's path with this execution's key or bounds
// in it, from the constants bindConsts evaluated. The constants usable
// now are the ones usable when the plan chose the path, so choosePath
// chooses it again.
func (t *tablePlan) resolve(consts []any) accessPath {
	switch t.path.kind {
	case kindPoint, kindRange, kindIndexEq:
		return choosePath(t.schema, t.sargs, consts)
	}
	return t.path
}

// scanPath feeds fn the candidate rows of one table, in primary-key
// order (reversed when desc is set, which only a full or range path
// honours) or an index walk's value order, until fn returns false.
func scanPath(tx *storage.Txn, table string, path accessPath, desc bool, fn func(kv storage.KV) (bool, error)) error {
	switch path.kind {
	case kindPoint:
		row, ok, err := tx.Get(table, path.pointKey)
		if err != nil || !ok {
			return err
		}
		_, err = fn(storage.KV{Key: path.pointKey, Row: row})
		return err
	case kindIndexEq:
		kvs, err := tx.ScanIndexEq(table, path.indexName, path.indexVal)
		if err != nil {
			return err
		}
		for _, kv := range kvs {
			if more, err := fn(kv); err != nil || !more {
				return err
			}
		}
		return nil
	default:
		var c *storage.Cursor
		if path.kind == kindIndexOrder {
			c = tx.IndexCursor(table, path.indexName)
		} else {
			c = tx.Cursor(table, path.lo, path.hi, desc)
		}
		for c.Next() {
			if more, err := fn(c.KV()); err != nil || !more {
				return err
			}
		}
		return c.Err()
	}
}

// coerceValue converts a value to the column type where SQL allows it
// implicitly (int literals into FLOAT columns, and integral floats into
// INT columns).
func coerceValue(v any, t storage.ColType) (any, error) {
	if v == nil {
		return nil, nil
	}
	switch t {
	case storage.TFloat:
		if iv, ok := v.(int64); ok {
			return float64(iv), nil
		}
	case storage.TInt:
		if fv, ok := v.(float64); ok && fv == float64(int64(fv)) {
			return int64(fv), nil
		}
	}
	if err := storage.CheckValue(t, v); err != nil {
		return nil, err
	}
	return v, nil
}

// joinKind is how a joined table's matching rows are found.
type joinKind uint8

const (
	joinPK    joinKind = iota // the join column is the whole primary key: point lookup
	joinIndex                 // the join column is indexed: index lookup
	joinHash                  // a hash table built once, on first probe, over the table's path
)

func (k joinKind) String() string {
	return [...]string{"pk-probe", "index-probe", "hash-join"}[k]
}

// tablePlan is one table of a statement: tables[0] is scanned by path,
// every later one probed per tuple of the tables before it.
type tablePlan struct {
	name, alias string
	schema      *storage.Schema

	// path is how tables[0] is scanned, and what a hash join's build
	// reads: a full scan, unless it is a filtered build. It holds no
	// values: resolve fills them in per execution.
	path accessPath
	// sargs are what the conjuncts of WHERE pin or bound on the table's
	// columns: for tables[0], every conjunct's; for a joined table, those
	// of the conjuncts placed at it, which a filtered build's path reads
	// (filteredBuilds).
	sargs []sarg
	// fetch names the index on tables[0]'s join column through which a
	// keyed fetch reads it (keyedFetch); "" scans path.
	fetch string

	join     joinKind // tables[1:]
	index    string   // joinIndex
	leftKey  *slot    // the ON column among the earlier tables
	rightCol int      // the ON column of this table

	// filters are the conjuncts of WHERE applied as soon as this table's
	// row is in the tuple, before any later table is probed. The last
	// table has none: the whole predicate is applied there.
	filters []Expr

	on [2]*Col // the ON columns as written, left then right, for Explain
}

// orderTerm is one ORDER BY key: an output column of an aggregated
// SELECT (item >= 0) or a bound expression over the tuple.
type orderTerm struct {
	item int
	expr Expr
	desc bool
}

// tablesPlan is the part of a plan every row-reading statement has:
// the tables, the predicate, and where its conjuncts apply.
type tablesPlan struct {
	tables []tablePlan
	where  Expr // bound; applied whole to every complete tuple
	// konsts are the sargs' constants, and usable says which of them were
	// usable under the parameters the plan was made with.
	konsts []konst
	usable []bool
	// nparams is how many parameters the plan was bound with, and mayFail
	// what kindOf said of where under them.
	nparams int
	mayFail bool
	// For Explain: WHERE as written and, per conjunct, the table at which
	// it first applies; nil when all apply at the last table.
	written Expr
	levels  []int
}

// base is every plan's tablesPlan.
func (p *tablesPlan) base() *tablesPlan { return p }

// bindConsts evaluates the sargs' constants for one execution into
// ev.consts, each coerced to its column's type, or nil where unusable —
// an evaluation error, NULL, or a value the column's type does not
// take. It reports whether the usable ones are exactly those usable
// when the plan was made.
func (p *tablesPlan) bindConsts(ev *env) bool {
	switch n := len(p.konsts); {
	case n <= len(ev.constBuf):
		ev.consts = ev.constBuf[:n]
	case cap(ev.consts) < n:
		ev.consts = make([]any, n)
	default:
		ev.consts = ev.consts[:n]
	}
	same := true
	for i, k := range p.konsts {
		v, err := eval(k.expr, ev)
		if err == nil {
			v, err = coerceValue(v, k.typ)
		}
		if err != nil {
			v = nil
		}
		ev.consts[i] = v
		if (v != nil) != p.usable[i] {
			same = false
		}
	}
	return same
}

// fits reports whether the plan may serve one more execution on e with
// ev's parameters: each of its tables' schemas is still e's current one
// (CreateIndex installs a new one), and every choice the parameters can
// sway comes out as it did — the parameter count, kindOf's verdict on
// the predicate, and which constants are usable. It leaves this
// execution's constants in ev.
func (p *tablesPlan) fits(e *storage.Engine, ev *env) bool {
	if len(ev.params) != p.nparams {
		return false
	}
	for i := range p.tables {
		if s, _ := e.Schema(p.tables[i].name); s != p.tables[i].schema {
			return false
		}
	}
	if p.where != nil && (kindOf(p.where, ev.params) == kMayFail) != p.mayFail {
		return false
	}
	return p.bindConsts(ev)
}

// selectPlan is a planned SELECT.
type selectPlan struct {
	tablesPlan
	columns    []string
	items      []Expr
	aggregated bool
	aggs       []*aggSlot
	groupBy    []Expr
	order      []orderTerm
	offset     int
	// keep is how many rows of the ordered output are wanted,
	// OFFSET+LIMIT, or -1 for all.
	keep int
	// inOrder says tuples arrive in ORDER BY order already (or there is
	// no ORDER BY), so the scan stops once keep rows are out. Otherwise
	// the output goes through a stable top-keep.
	inOrder bool
	// edge is "min" or "max" when the statement is that aggregate of the
	// leading key column over the whole table: the scan runs from that
	// end of the tree and stops at the first visible row.
	edge string
	// joinWalk says tables[1]'s path, an index walk, drives the join
	// instead of the base's scan (joinOrder).
	joinWalk bool

	// runs holds the scratch of finished executions (selectRun), cleared,
	// for the next one to reuse. It is the one part of a plan an
	// execution writes, and it synchronises itself.
	runs sync.Pool
}

// planTables binds the FROM clause and WHERE shared by SELECT, UPDATE
// and DELETE (the latter two with no joins), and chooses the access
// path. It returns the binder, which knows every table, to bind the
// rest of the statement, and leaves the sargs' constants in ev.
func planTables(e *storage.Engine, from TableRef, joins []Join, where Expr, ev *env) (*tablesPlan, *binder, error) {
	schema, ok := e.Schema(from.Table)
	if !ok {
		return nil, nil, fmt.Errorf("%w: %s", storage.ErrNoTable, from.Table)
	}
	b := &binder{nparams: len(ev.params), tables: make([]boundTable, 1, 1+len(joins))}
	b.tables[0] = boundTable{alias: from.Alias, schema: schema}
	p := &tablesPlan{nparams: len(ev.params), tables: make([]tablePlan, 1, 1+len(joins))}
	p.tables[0] = tablePlan{name: from.Table, alias: from.Alias, schema: schema}

	for _, j := range joins {
		right, ok := e.Schema(j.Right.Table)
		if !ok {
			return nil, nil, fmt.Errorf("%w: %s", storage.ErrNoTable, j.Right.Table)
		}
		// Decide which side of ON binds to the tables joined so far.
		leftCol, rightCol, err := orientJoin(j, b.tables, right)
		if err != nil {
			return nil, nil, err
		}
		left, err := b.resolve(leftCol)
		if err != nil {
			return nil, nil, err
		}
		t := tablePlan{
			name:     j.Right.Table,
			alias:    j.Right.Alias,
			schema:   right,
			leftKey:  left.(*slot),
			rightCol: right.ColIndex(rightCol.Name),
			on:       [2]*Col{leftCol, rightCol},
		}
		if t.rightCol < 0 {
			return nil, nil, fmt.Errorf("sql: unknown join column %s.%s", j.Right.Alias, rightCol.Name)
		}
		switch {
		case len(right.Key) == 1 && right.Key[0] == rightCol.Name:
			t.join = joinPK
		case indexOn(right, rightCol.Name) != "":
			t.join, t.index = joinIndex, indexOn(right, rightCol.Name)
		default:
			t.join = joinHash
		}
		p.tables = append(p.tables, t)
		b.tables = append(b.tables, boundTable{alias: j.Right.Alias, schema: right})
	}

	if where != nil {
		var err error
		if p.where, err = b.bind(where); err != nil {
			return nil, nil, err
		}
		// A conjunct belongs to the first table at which all its columns
		// are in the tuple. Dropping a tuple there, before the later
		// tables are probed, is the same as dropping it on the whole
		// predicate only if no part of the predicate can raise an error
		// (an early drop would hide the error a conjunct written before it
		// raises on that tuple), so that is when it is done; the whole
		// predicate is applied to every complete tuple either way.
		last := len(p.tables) - 1
		p.mayFail = kindOf(p.where, ev.params) == kMayFail
		early := last > 0 && !p.mayFail
		conjs := splitConjuncts(p.where, nil)
		p.written = where
		if early {
			p.levels = make([]int, len(conjs))
		}
		for i, c := range conjs {
			if early {
				at := max(lastTable(c), 0)
				p.levels[i] = at
				if at < last {
					p.tables[at].filters = append(p.tables[at].filters, c)
				}
			}
			// A sargable conjunct on a joined table is placed at it, and
			// feeds its path only when placed early.
			if col, op, val, ok := sargable(c); ok && (col.tab == 0 || early) {
				t := &p.tables[col.tab]
				t.sargs = append(t.sargs, sarg{off: col.off, op: op, konst: len(p.konsts)})
				p.konsts = append(p.konsts, konst{expr: val, typ: col.typ})
			}
		}
	}
	p.usable = make([]bool, len(p.konsts))
	p.bindConsts(ev)
	for i, v := range ev.consts {
		p.usable[i] = v != nil
	}
	p.tables[0].path = choosePath(schema, p.tables[0].sargs, ev.consts).shape()
	return p, b, nil
}

// orientJoin decides which Col of the ON clause references the
// already-joined tables (left) and which references the new table.
func orientJoin(j Join, left []boundTable, rightSchema *storage.Schema) (*Col, *Col, error) {
	a := j.On.L.(*Col)
	b := j.On.R.(*Col)
	belongsRight := func(c *Col) bool {
		if c.Table != "" {
			return c.Table == j.Right.Alias
		}
		return rightSchema.ColIndex(c.Name) >= 0 && !belongsLeftName(c.Name, left)
	}
	switch {
	case belongsRight(b) && !belongsRight(a):
		return a, b, nil
	case belongsRight(a) && !belongsRight(b):
		return b, a, nil
	default:
		return nil, nil, fmt.Errorf("sql: cannot orient join condition %s = %s", exprString(a), exprString(b))
	}
}

func belongsLeftName(name string, left []boundTable) bool {
	for _, bt := range left {
		if bt.schema.ColIndex(name) >= 0 {
			return true
		}
	}
	return false
}

func indexOn(s *storage.Schema, col string) string {
	for _, def := range s.Indexes {
		if def.Column == col {
			return def.Name
		}
	}
	return ""
}

// planSelect plans a SELECT against the engine's current schemas and
// the parameters in ev.
func planSelect(e *storage.Engine, s *Select, ev *env) (*selectPlan, error) {
	tp, b, err := planTables(e, s.From, s.Joins, s.Where, ev)
	if err != nil {
		return nil, err
	}
	p := &selectPlan{tablesPlan: *tp, offset: s.Offset, keep: -1}
	if s.Limit >= 0 {
		p.keep = s.Offset + s.Limit
	}

	// Expand * into column references now that tables are bound.
	written := expandStars(s.Items, b.tables)
	p.columns = make([]string, len(written))
	p.items = make([]Expr, len(written))
	b.allowAgg = true
	for i, it := range written {
		p.columns[i] = it.Alias
		if it.Alias == "" {
			p.columns[i] = exprString(it.Expr)
		}
		if p.items[i], err = b.bind(it.Expr); err != nil {
			return nil, err
		}
	}
	b.allowAgg = false
	p.aggs = b.aggs
	p.aggregated = len(s.GroupBy) > 0 || len(p.aggs) > 0

	p.groupBy = make([]Expr, len(s.GroupBy))
	for i, g := range s.GroupBy {
		if p.groupBy[i], err = b.bind(g); err != nil {
			return nil, err
		}
	}
	p.order = make([]orderTerm, len(s.OrderBy))
	for i, ob := range s.OrderBy {
		t := orderTerm{item: -1, desc: ob.Desc}
		if p.aggregated {
			t.item = outputColumn(ob.Expr, written)
		}
		if t.item < 0 {
			// A plain SELECT orders by the tuple; an aggregated one falls
			// back to it (on the group's first tuple) for a grouping
			// column it does not project.
			if t.expr, err = b.bind(ob.Expr); err != nil {
				return nil, err
			}
		}
		p.order[i] = t
	}

	switch {
	case p.aggregated:
		p.inOrder = len(p.order) == 0 && p.keep < 0
		p.edge = edgeOf(p, s)
	default:
		p.inOrder = scanOrdered(p.tables[0].schema, p.tables[0].sargs, ev.consts, p.order)
		p.indexOrder()
		p.joinOrder()
	}
	p.filteredBuilds(ev.consts)
	p.keyedFetch()
	return p, nil
}

// filteredBuilds turns the probe of every joined table whose own
// conjuncts — those placed at it that compare one of its columns with a
// constant — give it an access path into a hash join over that path: the
// table is read once through it into a hash on the join column, and a
// probe that misses drops the tuple without touching storage. A bucket
// holds, in primary-key order, exactly the rows of what the probe would
// have returned that the path fetches; a row it does not fetch fails an
// own conjunct, which early placement drops the tuple on anyway. So the
// tuples, their order and the results are the probe's.
//
// It needs early placement, which says no conjunct can fail. It is not
// worth a build when the base path is a point lookup (one tuple, one
// probe) or the scan stops at a LIMIT (a few tuples may be all it reads).
func (p *selectPlan) filteredBuilds(consts []any) {
	if p.levels == nil || p.tables[0].path.kind == kindPoint || (p.inOrder && p.keep >= 0) {
		return
	}
	for k := 1; k < len(p.tables); k++ {
		t := &p.tables[k]
		if path := choosePath(t.schema, t.sargs, consts); path.kind != kindFull {
			t.join, t.path = joinHash, path.shape()
		}
	}
}

// keyedFetch reads the base table through its index on the join column
// of tables[1] when tables[1] is a filtered build over an equality path
// (index-eq or pk-point), which holds few rows and so few keys: the
// executor reads the build first, fetches the base rows whose join
// column holds one of its keys inside the base path's bounds, and visits
// them in primary-key order. Any other base row's probe finds no bucket
// and drops the tuple, so the tuples, their order and the results are
// the scan's. Only a full or pk-range base is worth it: an index-eq base
// reads few rows already. filteredBuilds makes no build where the scan
// may stop early (an ordered stop; an edge read has no join).
func (p *selectPlan) keyedFetch() {
	if len(p.tables) < 2 {
		return
	}
	base, t := &p.tables[0], &p.tables[1]
	equality := t.path.kind == kindIndexEq || t.path.kind == kindPoint
	if t.join != joinHash || !equality || (base.path.kind != kindFull && base.path.kind != kindRange) {
		return
	}
	// tables[1]'s ON column pairs with one of the base's, the only table
	// before it.
	base.fetch = indexOn(base.schema, base.schema.Columns[t.leftKey.off].Name)
}

// outputColumn resolves an ORDER BY expression against an aggregated
// SELECT's output: an alias or a textually identical select item maps
// to that output column. -1 when neither matches.
func outputColumn(e Expr, items []SelectItem) int {
	want := exprString(e)
	for i, it := range items {
		if it.Alias != "" {
			if c, ok := e.(*Col); ok && c.Table == "" && c.Name == it.Alias {
				return i
			}
		}
		if exprString(it.Expr) == want {
			return i
		}
	}
	return -1
}

// scanOrdered reports whether the base table's scan order — primary-key
// order on every access path, and joins extend tuples without
// reordering them — is the order ORDER BY asks for, ties included: the
// keys, all ascending, spell out a prefix of the primary key, where a
// column the predicate pins to one constant may be skipped or named
// anywhere, since every surviving row agrees on it.
func scanOrdered(schema *storage.Schema, sargs []sarg, consts []any, order []orderTerm) bool {
	pinned := func(off int) bool { return eqValue(sargs, consts, off) != nil }
	ki := 0
	for _, o := range order {
		c, ok := o.expr.(*slot)
		if !ok || c.tab != 0 {
			return false
		}
		if pinned(c.off) {
			continue
		}
		for ki < len(schema.Key) && pinned(schema.ColIndex(schema.Key[ki])) {
			ki++
		}
		if o.desc || ki == len(schema.Key) || schema.ColIndex(schema.Key[ki]) != c.off {
			return false
		}
		ki++
	}
	return true
}

// indexOrder reads the base table of a plain SELECT by walking one of its
// indexes in value order (Txn.IndexCursor) instead of the full scan its
// path would be, when ORDER BY spells the indexed column, ascending and
// INT or TEXT, optionally followed by a prefix of the primary key,
// ascending, and the output stops at a LIMIT. The walk's order, (value,
// primary key) with NULL first, is then ORDER BY's, ties included: the
// full scan's top-n keeps equal keys in primary-key order, and joins
// extend tuples without reordering them. So the plan is in order and the
// scan stops after the LIMIT's rows. That stop must not hide an error
// the full scan would raise, so no conjunct of WHERE may fail. A
// predicate that matches nothing walks every entry: the cost of the full
// scan it replaces.
func (p *selectPlan) indexOrder() {
	base := &p.tables[0]
	if p.inOrder || p.keep < 0 || base.path.kind != kindFull || p.mayFail {
		return
	}
	schema := base.schema
	if len(p.order) > 1+len(schema.Key) {
		return
	}
	for i, o := range p.order {
		c, ok := o.expr.(*slot)
		if !ok || c.tab != 0 || o.desc || (i > 0 && c.off != schema.ColIndex(schema.Key[i-1])) {
			return
		}
	}
	col := schema.Columns[p.order[0].expr.(*slot).off]
	index := indexOn(schema, col.Name)
	if index == "" || (col.Type != storage.TInt && col.Type != storage.TString) {
		return
	}
	base.path = accessPath{kind: kindIndexOrder, indexName: index}
	p.inOrder = true
}

// joinOrder drives a plain SELECT of two tables, A JOIN B, from a walk of
// one of B's indexes in value order instead of A's full scan, when
// ORDER BY spells that index's column alone, ascending and INT or TEXT,
// the output stops at a LIMIT, and ON pairs a B column with A's whole
// primary key, the two of one type, INT or TEXT: each B row of the walk finds its one
// A row by a primary-key probe. The nested loop emits tuples in
// (A key, B key) order and its stable top-n keeps that order among equal
// ORDER BY values, so the executor gathers each run of equal values,
// sorts it by (A key, B key) and emits it, and stops at the end of the
// run that fills the LIMIT (selectRun.joinWalk). As for indexOrder, no
// conjunct may fail, and a predicate that matches nothing walks every
// entry of the index.
func (p *selectPlan) joinOrder() {
	if p.inOrder || p.keep < 0 || p.mayFail || len(p.tables) != 2 || len(p.order) != 1 {
		return
	}
	base, t := &p.tables[0], &p.tables[1]
	o := p.order[0]
	c, ok := o.expr.(*slot)
	if !ok || c.tab != 1 || o.desc || base.path.kind != kindFull || len(base.schema.Key) != 1 {
		return
	}
	pk := base.schema.ColIndex(base.schema.Key[0])
	typ := base.schema.Columns[pk].Type
	if t.leftKey.off != pk || typ != t.schema.Columns[t.rightCol].Type || (typ != storage.TInt && typ != storage.TString) {
		return
	}
	col := t.schema.Columns[c.off]
	index := indexOn(t.schema, col.Name)
	if index == "" || (col.Type != storage.TInt && col.Type != storage.TString) {
		return
	}
	t.path = accessPath{kind: kindIndexOrder, indexName: index}
	p.joinWalk, p.inOrder = true, true
}

// edgeOf recognises SELECT MIN(k) / MAX(k) FROM t, k the leading
// primary-key column, with nothing else in the statement: its answer is
// the first or last visible row of the tree.
func edgeOf(p *selectPlan, s *Select) string {
	if len(p.tables) != 1 || s.Where != nil || len(s.GroupBy) != 0 || len(s.OrderBy) != 0 || len(p.items) != 1 {
		return ""
	}
	a, ok := p.items[0].(*aggSlot)
	if !ok || a.star {
		return ""
	}
	schema := p.tables[0].schema
	if c, ok := a.arg.(*slot); !ok || c.off != schema.ColIndex(schema.Key[0]) {
		return ""
	}
	switch a.fn {
	case "MIN":
		return "min"
	case "MAX":
		return "max"
	}
	return ""
}

func expandStars(items []SelectItem, tables []boundTable) []SelectItem {
	var out []SelectItem
	for _, it := range items {
		if !it.Star {
			out = append(out, it)
			continue
		}
		for _, bt := range tables {
			for _, c := range bt.schema.Columns {
				out = append(out, SelectItem{Expr: &Col{Table: bt.alias, Name: c.Name}})
			}
		}
	}
	return out
}

// describe renders the tables of a plan: per table its access path
// (base names it; an edge read is not the full scan its path says) or
// join strategy, and the conjuncts applied once its row is in the tuple.
func (p *tablesPlan) describe(sb *strings.Builder, base string) {
	var conjs []Expr
	if p.written != nil {
		conjs = splitConjuncts(p.written, nil)
	}
	for i := range p.tables {
		t := &p.tables[i]
		if i == 0 {
			fmt.Fprintf(sb, "%s on %s", base, t.name)
		} else {
			fmt.Fprintf(sb, " -> %s %s", t.join, t.name)
		}
		if t.alias != t.name {
			sb.WriteString(" " + t.alias)
		}
		if t.fetch != "" {
			sb.WriteString(" keyed-fetch(" + t.fetch + ")")
		}
		if i > 0 {
			if t.path.kind != kindFull {
				sb.WriteString(" via " + t.path.via())
			}
			fmt.Fprintf(sb, " on %s = %s", exprString(t.on[0]), exprString(t.on[1]))
		}
		sep := " where "
		for ci, c := range conjs {
			at := len(p.tables) - 1
			if p.levels != nil {
				at = p.levels[ci]
			}
			if at == i {
				sb.WriteString(sep + exprString(c))
				sep = " and "
			}
		}
	}
}

// describeWalk renders the tables of a join walk (joinOrder): the walk
// of the joined table, the probe into the base, and every conjunct after
// it, where the tuple is whole.
func (p *selectPlan) describeWalk(sb *strings.Builder) {
	for i, k := range []int{1, 0} {
		t := &p.tables[k]
		if i == 0 {
			fmt.Fprintf(sb, "%s on %s", t.path.via(), t.name)
		} else {
			fmt.Fprintf(sb, " -> %s %s", joinPK, t.name)
		}
		if t.alias != t.name {
			sb.WriteString(" " + t.alias)
		}
	}
	fmt.Fprintf(sb, " on %s = %s", exprString(p.tables[1].on[1]), exprString(p.tables[1].on[0]))
	if p.written != nil {
		sep := " where "
		for _, c := range splitConjuncts(p.written, nil) {
			sb.WriteString(sep + exprString(c))
			sep = " and "
		}
	}
}

// Explain describes the plan a statement would run with the given
// parameters, on one line: for each table, in join order, its access
// path ("index-order(<index>)" when the base is an index walk in value
// order, and "keyed-fetch(<index>)" after it when it is read through that
// index for the build's keys) or join strategy (with "via <path>" when
// a hash join's build is filtered) and the conjuncts of WHERE applied
// there, then how the output is grouped, ordered and cut —
// "ordered-stop(n)" when the scan's own order is ORDER BY's and it ends
// after n rows, "top-n(n)" when a bounded stable selection stands in for
// the sort, "sort" when everything is sorted, "edge(min|max)" when the
// answer is read off one end of the tree.
func Explain(e *storage.Engine, stmt Stmt, params []any) (string, error) {
	ev, err := newEnv(params)
	if err != nil {
		return "", err
	}
	pl, err := planStmt(e, stmt, ev)
	if err != nil {
		return "", err
	}
	return explain(e, stmt, pl)
}

// explain renders Explain's line for stmt planned as pl (nil for a
// statement planStmt does not plan).
func explain(e *storage.Engine, stmt Stmt, pl plan) (string, error) {
	var sb strings.Builder
	switch s := stmt.(type) {
	case *Select:
		p := pl.(*selectPlan)
		base := p.tables[0].path.kind.String()
		switch {
		case p.joinWalk:
			p.describeWalk(&sb)
		case p.edge != "":
			base = "edge(" + p.edge + ")"
		case p.tables[0].path.kind == kindIndexOrder:
			base = p.tables[0].path.via()
		}
		if !p.joinWalk {
			p.describe(&sb, base)
		}
		if p.aggregated {
			sb.WriteString(" -> group")
		}
		switch {
		case p.inOrder && p.keep >= 0:
			fmt.Fprintf(&sb, " -> ordered-stop(%d)", p.keep)
		case p.inOrder && len(p.order) > 0:
			sb.WriteString(" -> ordered")
		case !p.inOrder && p.keep >= 0:
			fmt.Fprintf(&sb, " -> top-n(%d)", p.keep)
		case !p.inOrder:
			sb.WriteString(" -> sort")
		}
		return sb.String(), nil
	case *Insert:
		if _, ok := e.Schema(s.Table); !ok {
			return "", fmt.Errorf("%w: %s", storage.ErrNoTable, s.Table)
		}
		return "insert on " + s.Table, nil
	case *Update, *Delete:
		p := pl.base()
		p.describe(&sb, p.tables[0].path.kind.String())
		return sb.String(), nil
	}
	return "", fmt.Errorf("sql: cannot explain %T", stmt)
}
