package sql

import (
	"fmt"
	"math"
	"sort"

	"sconrep/internal/storage"
)

// Result is the outcome of executing a statement. SELECTs populate
// Columns and Rows; INSERT/UPDATE/DELETE populate Affected.
type Result struct {
	Columns  []string
	Rows     [][]any
	Affected int
}

// Exec parses and executes a statement inside tx.
func Exec(tx *storage.Txn, e *storage.Engine, src string, params ...any) (*Result, error) {
	stmt, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return ExecStmt(tx, e, stmt, params...)
}

// newEnv normalises the statement parameters, once, into a fresh
// evaluation environment.
func newEnv(params []any) (*env, error) {
	params, err := NormalizeParams(params)
	if err != nil {
		return nil, err
	}
	return &env{params: params}, nil
}

// ExecStmt executes a parsed statement inside tx. DDL statements go
// directly to the engine and are not transactional.
func ExecStmt(tx *storage.Txn, e *storage.Engine, stmt Stmt, params ...any) (*Result, error) {
	ev, err := newEnv(params)
	if err != nil {
		return nil, err
	}
	switch s := stmt.(type) {
	case *Select:
		return execSelect(tx, e, s, ev)
	case *Insert:
		return execInsert(tx, e, s, ev)
	case *Update:
		return execUpdate(tx, e, s, ev)
	case *Delete:
		return execDelete(tx, e, s, ev)
	case *CreateTable:
		return &Result{}, e.CreateTable(s.Schema)
	case *CreateIndex:
		return &Result{}, e.CreateIndex(s.Table, s.Def)
	}
	return nil, fmt.Errorf("sql: unsupported statement %T", stmt)
}

// selectRun is one execution of a planned SELECT. Tuples stream through
// it one at a time: the base table's scan drives a nested loop over the
// joined tables, each tuple that passes the predicate is handed to the
// sink (projection, top-n or aggregation), and the scan ends as soon as
// the sink has what it needs.
type selectRun struct {
	p  *selectPlan
	tx *storage.Txn
	ev *env
	// hashes[k] is table k's hash-join build, made on first probe.
	hashes []hashBuild
	// bufs[k] holds the rows of table k's latest index read — a probe's,
	// or for k = 0 the keyed fetch's — and is reused by the next one.
	bufs [][]storage.KV

	rows [][]any // the output, when it needs no sorting
	top  topN    // the output, when it does
	// out and keys are the projection and sort keys of the tuple at hand;
	// the top-n takes them over when it keeps the tuple.
	out, keys []any

	// Aggregation: group numbers by encoded GROUP BY values, and every
	// group's first tuple and aggregate states (see newGroup).
	groups map[string]int
	firsts [][]any
	aggs   []aggState
	// keyBuf holds the encoded key of one lookup — a group's, or a hash
	// join's — from its encoding to the map access, which converts it
	// without a copy.
	keyBuf []byte
}

// hashBuild is a joined table's rows grouped by their join column's
// encoded value, each group in primary-key order.
type hashBuild struct {
	group map[string]int
	rows  [][][]any
}

func execSelect(tx *storage.Txn, e *storage.Engine, s *Select, ev *env) (*Result, error) {
	p, err := planSelect(e, s, ev)
	if err != nil {
		return nil, err
	}
	r := &selectRun{p: p, tx: tx, ev: ev, top: topN{order: p.order, n: p.keep}}
	ev.rows = make([][]any, len(p.tables))
	if len(p.tables) > 1 {
		r.bufs = make([][]storage.KV, len(p.tables))
	}
	if p.aggregated {
		r.groups = map[string]int{}
	} else {
		r.rows = [][]any{} // no rows is an empty Rows, not a nil one; the wire tells them apart
	}

	if p.tables[0].fetch != "" {
		err = r.keyedFetch()
	} else {
		err = r.scan()
	}
	if err != nil {
		return nil, err
	}
	if p.aggregated {
		if err := r.emitGroups(); err != nil {
			return nil, err
		}
	}

	rows := r.rows
	if !p.inOrder {
		rows = r.top.appendSorted(rows)
	}
	if p.keep >= 0 && len(rows) > p.keep {
		rows = rows[:p.keep]
	}
	if p.offset > 0 {
		if p.offset >= len(rows) {
			rows = nil
		} else {
			rows = rows[p.offset:]
		}
	}
	return &Result{Columns: p.columns, Rows: rows}, nil
}

// scan drives the nested loop from the base table's access path.
func (r *selectRun) scan() error {
	base, edge := &r.p.tables[0], r.p.edge
	return scanPath(r.tx, base.name, base.path, edge == "max", func(kv storage.KV) (bool, error) {
		more, err := r.bindRow(0, kv.Row)
		return more && edge == "", err
	})
}

// keyedFetch drives the nested loop from the base rows that table 1's
// build can match (plan's keyedFetch): the build's keys, coerced to the
// base's join column type, select those rows through the base's index,
// inside its path's bounds and in primary-key order. A key that does not
// coerce matches no base row, since no row's probe reaches it.
func (r *selectRun) keyedFetch() error {
	base, t := &r.p.tables[0], &r.p.tables[1]
	h, err := r.build(1)
	if err != nil {
		return err
	}
	typ := base.schema.Columns[t.leftKey.off].Type
	keys := make([]any, 0, len(h.rows))
	for _, rows := range h.rows {
		v := rows[0][t.rightCol]
		if f, ok := v.(float64); ok && typ == storage.TInt && math.Abs(f) >= 1<<53 {
			// Several integers round to f, so all of them probe to it; an
			// index lookup by one value would fetch only one.
			return r.scan()
		}
		if k, err := coerceValue(v, typ); err == nil {
			keys = append(keys, k)
		}
	}
	r.bufs[0], err = r.tx.AppendIndexIn(r.bufs[0][:0], base.name, base.fetch, keys, base.path.lo, base.path.hi)
	if err != nil {
		return err
	}
	for _, kv := range r.bufs[0] {
		if more, err := r.bindRow(0, kv.Row); err != nil || !more {
			return err
		}
	}
	return nil
}

// bindRow puts table k's row into the tuple, applies the conjuncts that
// become evaluable there, and goes on to the next table. It reports
// whether the scan should continue.
func (r *selectRun) bindRow(k int, row []any) (bool, error) {
	r.ev.rows[k] = row
	for _, f := range r.p.tables[k].filters {
		// A filter cannot fail (planTables); were it to, the whole
		// predicate below decides.
		if ok, err := isTrue(f, r.ev); err == nil && !ok {
			return true, nil
		}
	}
	if k+1 < len(r.p.tables) {
		return r.probe(k + 1)
	}
	if r.p.where != nil {
		if ok, err := isTrue(r.p.where, r.ev); err != nil || !ok {
			return err == nil, err
		}
	}
	if r.p.aggregated {
		return true, r.accumulate()
	}
	return r.emit()
}

// probe extends the tuple through table k: every row whose join column
// equals the left key, in primary-key order — of those a filtered build
// read, when it has one (filteredBuilds).
func (r *selectRun) probe(k int) (bool, error) {
	t := &r.p.tables[k]
	val := r.ev.rows[t.leftKey.tab][t.leftKey.off]
	if val == nil {
		return true, nil
	}
	cv, err := coerceValue(val, t.schema.Columns[t.rightCol].Type)
	if err != nil {
		return true, nil // no value of the column's type equals it
	}
	switch t.join {
	case joinPK:
		row, ok, err := r.tx.Get(t.name, storage.EncodeKey(cv))
		if err != nil || !ok {
			return err == nil, err
		}
		return r.bindRow(k, row)
	case joinIndex:
		r.bufs[k], err = r.tx.AppendIndexIn(r.bufs[k][:0], t.name, t.index, []any{cv}, "", "")
		if err != nil {
			return false, err
		}
		for _, kv := range r.bufs[k] {
			if more, err := r.bindRow(k, kv.Row); err != nil || !more {
				return false, err
			}
		}
		return true, nil
	}
	h, err := r.build(k)
	if err != nil {
		return false, err
	}
	r.keyBuf = storage.EncodeValue(r.keyBuf[:0], cv)
	g, ok := h.group[string(r.keyBuf)]
	if !ok {
		return true, nil
	}
	for _, row := range h.rows[g] {
		if more, err := r.bindRow(k, row); err != nil || !more {
			return false, err
		}
	}
	return true, nil
}

// build returns table k's hash-join build, reading it through the
// table's path on first use.
func (r *selectRun) build(k int) (*hashBuild, error) {
	if r.hashes == nil {
		r.hashes = make([]hashBuild, len(r.p.tables))
	}
	h := &r.hashes[k]
	if h.group != nil {
		return h, nil
	}
	t := &r.p.tables[k]
	h.group = map[string]int{}
	return h, scanPath(r.tx, t.name, t.path, false, func(kv storage.KV) (bool, error) {
		v := kv.Row[t.rightCol]
		if v == nil {
			return true, nil
		}
		r.keyBuf = storage.EncodeValue(r.keyBuf[:0], v)
		g, ok := h.group[string(r.keyBuf)]
		if !ok {
			g = len(h.rows)
			h.group[string(r.keyBuf)] = g
			h.rows = append(h.rows, nil)
		}
		h.rows[g] = append(h.rows[g], kv.Row)
		return true, nil
	})
}

// emit projects the tuple at hand (of a plain SELECT) or the group at
// hand (of an aggregated one) into the output, and reports whether more
// are wanted.
func (r *selectRun) emit() (bool, error) {
	p := r.p
	if r.out == nil {
		r.out = make([]any, len(p.items))
	}
	for i, it := range p.items {
		v, err := eval(it, r.ev)
		if err != nil {
			return false, err
		}
		r.out[i] = v
	}
	if p.inOrder {
		r.rows = append(r.rows, r.out)
		r.out = nil
		return p.keep < 0 || len(r.rows) < p.keep, nil
	}
	return true, r.offer()
}

// offer evaluates the sort keys of the output row at hand — against the
// select list where ORDER BY names an output column, the tuple otherwise
// — and hands row and keys to the top-n.
func (r *selectRun) offer() error {
	if r.keys == nil {
		r.keys = make([]any, len(r.p.order))
	}
	for i, o := range r.p.order {
		if o.item >= 0 {
			r.keys[i] = r.out[o.item]
			continue
		}
		v, err := eval(o.expr, r.ev)
		if err != nil {
			return err
		}
		r.keys[i] = v
	}
	if r.top.offer(r.keys, r.out) {
		r.keys, r.out = nil, nil
	}
	return nil
}

// topN selects the first n rows of a stable sort without sorting the
// rest. Rows are ordered by (keys, arrival), which is the order
// sort.SliceStable over the whole input would give: rows with equal keys
// keep arrival order. It buffers up to 2n rows, cuts back to the best n
// when the buffer fills, and from then on turns away any row that does
// not beat the worst of those. n < 0 keeps everything.
type topN struct {
	order []orderTerm
	n     int
	rows  []sortedRow
	seq   int
	bar   *sortedRow // the n-th best row at the last cut
}

type sortedRow struct {
	keys, out []any
	seq       int
}

// before reports whether a sorts before b.
func (t *topN) before(a, b *sortedRow) bool {
	for i, o := range t.order {
		c := storage.CompareValues(a.keys[i], b.keys[i])
		if c == 0 {
			continue
		}
		return (c < 0) != o.desc
	}
	return a.seq < b.seq
}

// offer considers the next row in arrival order and reports whether it
// was kept (so its slices now belong to the topN).
func (t *topN) offer(keys, out []any) bool {
	row := sortedRow{keys: keys, out: out, seq: t.seq}
	t.seq++
	if t.n == 0 || (t.bar != nil && !t.before(&row, t.bar)) {
		return false
	}
	if len(t.rows) == 2*t.n {
		t.cut()
	}
	t.rows = append(t.rows, row)
	return true
}

// cut sorts the buffered rows and drops all but the best n.
func (t *topN) cut() {
	sort.Slice(t.rows, func(a, b int) bool { return t.before(&t.rows[a], &t.rows[b]) })
	if t.n >= 0 && len(t.rows) > t.n {
		t.rows = t.rows[:t.n]
		bar := t.rows[t.n-1]
		t.bar = &bar
	}
}

// appendSorted appends the kept rows, in order, to rows.
func (t *topN) appendSorted(rows [][]any) [][]any {
	t.cut()
	for i := range t.rows {
		rows = append(rows, t.rows[i].out)
	}
	return rows
}

// aggState accumulates one aggregate function over a group.
type aggState struct {
	count    int64
	sumI     int64
	sumF     float64
	sawFloat bool
	min, max any
	distinct map[string]bool
}

func (a *aggState) add(v any) {
	if v == nil {
		return
	}
	if a.distinct != nil {
		k := storage.EncodeKey(v)
		if a.distinct[k] {
			return
		}
		a.distinct[k] = true
	}
	a.count++
	switch n := v.(type) {
	case int64:
		a.sumI += n
		a.sumF += float64(n)
	case float64:
		a.sawFloat = true
		a.sumF += n
	}
	if a.min == nil || storage.CompareValues(v, a.min) < 0 {
		a.min = v
	}
	if a.max == nil || storage.CompareValues(v, a.max) > 0 {
		a.max = v
	}
}

func (a *aggState) result(fn string) any {
	switch fn {
	case "COUNT":
		return a.count
	case "SUM":
		if a.count == 0 {
			return nil
		}
		if a.sawFloat {
			return a.sumF
		}
		return a.sumI
	case "AVG":
		if a.count == 0 {
			return nil
		}
		return a.sumF / float64(a.count)
	case "MIN":
		return a.min
	case "MAX":
		return a.max
	}
	return nil
}

// newGroup starts a group whose first tuple is first, and returns its
// number. Groups are numbered in order of first appearance; group g's
// first tuple and aggregate states are the g-th stretches of firsts and
// aggs, so a group costs no allocation of its own.
func (r *selectRun) newGroup(first [][]any) int {
	g := len(r.firsts) / len(r.p.tables)
	r.firsts = append(r.firsts, first...)
	for _, a := range r.p.aggs {
		var st aggState
		if a.distinct {
			st.distinct = map[string]bool{}
		}
		r.aggs = append(r.aggs, st)
	}
	return g
}

// accumulate feeds the tuple at hand to its group's aggregates.
func (r *selectRun) accumulate() error {
	r.keyBuf = r.keyBuf[:0]
	for _, g := range r.p.groupBy {
		v, err := eval(g, r.ev)
		if err != nil {
			return err
		}
		r.keyBuf = storage.EncodeValue(r.keyBuf, v)
	}
	g, ok := r.groups[string(r.keyBuf)]
	if !ok {
		g = r.newGroup(r.ev.rows)
		r.groups[string(r.keyBuf)] = g
	}
	for i, a := range r.p.aggs {
		st := &r.aggs[g*len(r.p.aggs)+i]
		if a.star {
			st.count++
			continue
		}
		v, err := eval(a.arg, r.ev)
		if err != nil {
			return err
		}
		st.add(v)
	}
	return nil
}

// emitGroups computes each group's output row, in order of first
// appearance, with the group's first tuple standing in for any column
// outside an aggregate.
func (r *selectRun) emitGroups() error {
	p := r.p
	nt, na := len(p.tables), len(p.aggs)
	// Empty input with no GROUP BY still yields one (empty) group, its
	// columns all NULL.
	if len(r.firsts) == 0 && len(p.groupBy) == 0 {
		r.newGroup(make([][]any, nt))
	}
	for g := 0; g < len(r.firsts)/nt; g++ {
		r.ev.rows, r.ev.aggs = r.firsts[g*nt:(g+1)*nt], r.aggs[g*na:(g+1)*na]
		if _, err := r.emit(); err != nil {
			return err
		}
	}
	return nil
}

func execInsert(tx *storage.Txn, e *storage.Engine, s *Insert, ev *env) (*Result, error) {
	schema, ok := e.Schema(s.Table)
	if !ok {
		return nil, fmt.Errorf("%w: %s", storage.ErrNoTable, s.Table)
	}
	cols := s.Columns
	if len(cols) == 0 {
		cols = make([]string, len(schema.Columns))
		for i, c := range schema.Columns {
			cols[i] = c.Name
		}
	}
	colIdx := make([]int, len(cols))
	for i, c := range cols {
		ci := schema.ColIndex(c)
		if ci < 0 {
			return nil, fmt.Errorf("sql: table %s has no column %s", s.Table, c)
		}
		colIdx[i] = ci
	}
	b := &binder{nparams: len(ev.params)} // no table: VALUES names no column
	n := 0
	for _, exprRow := range s.Rows {
		if len(exprRow) != len(cols) {
			return nil, fmt.Errorf("sql: INSERT row has %d values, want %d", len(exprRow), len(cols))
		}
		row := make([]any, schema.NumColumns())
		for i, ex := range exprRow {
			bound, err := b.bind(ex)
			if err != nil {
				return nil, err
			}
			v, err := eval(bound, ev)
			if err != nil {
				return nil, err
			}
			cv, err := coerceValue(v, schema.Columns[colIdx[i]].Type)
			if err != nil {
				return nil, err
			}
			row[colIdx[i]] = cv
		}
		if err := tx.Insert(s.Table, row); err != nil {
			return nil, err
		}
		n++
	}
	return &Result{Affected: n}, nil
}

// matchingKVs returns the rows of a single table matching WHERE, for
// UPDATE and DELETE, all of them before the first is written.
func matchingKVs(tx *storage.Txn, e *storage.Engine, table string, where Expr, ev *env) ([]storage.KV, *tablesPlan, error) {
	p, err := planTables(e, TableRef{Table: table, Alias: table}, nil, where, ev)
	if err != nil {
		return nil, nil, err
	}
	ev.rows = make([][]any, 1)
	var out []storage.KV
	err = scanPath(tx, table, p.tables[0].path, false, func(kv storage.KV) (bool, error) {
		ev.rows[0] = kv.Row
		if p.where != nil {
			if ok, err := isTrue(p.where, ev); err != nil || !ok {
				return err == nil, err
			}
		}
		out = append(out, kv)
		return true, nil
	})
	return out, p, err
}

func execUpdate(tx *storage.Txn, e *storage.Engine, s *Update, ev *env) (*Result, error) {
	kvs, p, err := matchingKVs(tx, e, s.Table, s.Where, ev)
	if err != nil {
		return nil, err
	}
	schema := p.tables[0].schema
	setIdx := make([]int, len(s.Set))
	setExpr := make([]Expr, len(s.Set))
	for i, sc := range s.Set {
		ci := schema.ColIndex(sc.Column)
		if ci < 0 {
			return nil, fmt.Errorf("sql: table %s has no column %s", s.Table, sc.Column)
		}
		setIdx[i] = ci
		if setExpr[i], err = p.binder.bind(sc.Expr); err != nil {
			return nil, err
		}
	}
	for _, kv := range kvs {
		ev.rows[0] = kv.Row
		// kv.Row is the stored row, shared: the new image is a copy.
		newRow := append([]any(nil), kv.Row...)
		for i := range s.Set {
			v, err := eval(setExpr[i], ev)
			if err != nil {
				return nil, err
			}
			cv, err := coerceValue(v, schema.Columns[setIdx[i]].Type)
			if err != nil {
				return nil, err
			}
			newRow[setIdx[i]] = cv
		}
		if err := tx.Update(s.Table, kv.Key, newRow); err != nil {
			return nil, err
		}
	}
	return &Result{Affected: len(kvs)}, nil
}

func execDelete(tx *storage.Txn, e *storage.Engine, s *Delete, ev *env) (*Result, error) {
	kvs, _, err := matchingKVs(tx, e, s.Table, s.Where, ev)
	if err != nil {
		return nil, err
	}
	for _, kv := range kvs {
		if err := tx.Delete(s.Table, kv.Key); err != nil {
			return nil, err
		}
	}
	return &Result{Affected: len(kvs)}, nil
}

// Tables returns the set of tables a statement reads or writes — the
// static table-set the fine-grained consistency technique synchronizes
// on. DDL statements return their target table.
func Tables(stmt Stmt) []string {
	seen := map[string]bool{}
	var out []string
	add := func(t string) {
		if t != "" && !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	switch s := stmt.(type) {
	case *Select:
		add(s.From.Table)
		for _, j := range s.Joins {
			add(j.Right.Table)
		}
	case *Insert:
		add(s.Table)
	case *Update:
		add(s.Table)
	case *Delete:
		add(s.Table)
	case *CreateTable:
		add(s.Schema.Table)
	case *CreateIndex:
		add(s.Table)
	}
	sort.Strings(out)
	return out
}

// IsReadOnly reports whether the statement cannot modify data.
func IsReadOnly(stmt Stmt) bool {
	_, ok := stmt.(*Select)
	return ok
}

// Stmt preparation: a prepared statement caches the parse and exposes
// the static table-set.

// Prepared is a parsed statement ready for repeated execution with
// different parameters.
type Prepared struct {
	SQL      string
	Stmt     Stmt
	TableSet []string
	ReadOnly bool
}

// Prepare parses src once.
func Prepare(src string) (*Prepared, error) {
	stmt, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return &Prepared{
		SQL:      src,
		Stmt:     stmt,
		TableSet: Tables(stmt),
		ReadOnly: IsReadOnly(stmt),
	}, nil
}

// Exec runs the prepared statement in tx.
func (p *Prepared) Exec(tx *storage.Txn, e *storage.Engine, params ...any) (*Result, error) {
	return ExecStmt(tx, e, p.Stmt, params...)
}
