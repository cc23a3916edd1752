package sql

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync/atomic"

	"sconrep/internal/storage"
)

// Result is the outcome of executing a statement. SELECTs populate
// Columns and Rows; INSERT/UPDATE/DELETE populate Affected. A SELECT's
// Columns are its plan's, shared with every result of that plan: they
// are read-only.
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

// ExecStmt executes a parsed statement inside tx, planned afresh. DDL
// statements go directly to the engine and are not transactional.
func ExecStmt(tx *storage.Txn, e *storage.Engine, stmt Stmt, params ...any) (*Result, error) {
	ev, err := newEnv(params)
	if err != nil {
		return nil, err
	}
	pl, err := planStmt(e, stmt, ev)
	if err != nil {
		return nil, err
	}
	return run(tx, e, stmt, pl, ev)
}

// plan is a planned SELECT (*selectPlan), UPDATE or DELETE (*writePlan).
// Once made it is never modified: executions share it, and keep their
// own state in their env and, for a SELECT, their selectRun.
type plan interface {
	base() *tablesPlan
}

// writePlan is a planned UPDATE or DELETE: its one table and, for an
// UPDATE, the SET clause bound against it.
type writePlan struct {
	tablesPlan
	setIdx  []int
	setExpr []Expr
}

// planStmt plans a SELECT, UPDATE or DELETE against e's current schemas
// and ev's parameters, leaving the plan's constants in ev. Any other
// statement runs unplanned: its plan is nil.
func planStmt(e *storage.Engine, stmt Stmt, ev *env) (plan, error) {
	switch s := stmt.(type) {
	case *Select:
		return planSelect(e, s, ev)
	case *Update:
		return planWrite(e, s.Table, s.Where, s.Set, ev)
	case *Delete:
		return planWrite(e, s.Table, s.Where, nil, ev)
	}
	return nil, nil
}

// planWrite plans an UPDATE (set non-empty) or DELETE of table.
func planWrite(e *storage.Engine, table string, where Expr, set []SetClause, ev *env) (*writePlan, error) {
	tp, b, err := planTables(e, TableRef{Table: table, Alias: table}, nil, where, ev)
	if err != nil {
		return nil, err
	}
	p := &writePlan{tablesPlan: *tp, setIdx: make([]int, len(set)), setExpr: make([]Expr, len(set))}
	schema := p.tables[0].schema
	for i, sc := range set {
		if p.setIdx[i] = schema.ColIndex(sc.Column); p.setIdx[i] < 0 {
			return nil, fmt.Errorf("sql: table %s has no column %s", table, sc.Column)
		}
		if p.setExpr[i], err = b.bind(sc.Expr); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// run executes stmt, planned as pl, inside tx.
func run(tx *storage.Txn, e *storage.Engine, stmt Stmt, pl plan, ev *env) (*Result, error) {
	switch s := stmt.(type) {
	case *Select:
		return execSelect(tx, pl.(*selectPlan), ev)
	case *Insert:
		return execInsert(tx, e, s, ev)
	case *Update:
		return execUpdate(tx, s.Table, pl.(*writePlan), ev)
	case *Delete:
		return execDelete(tx, s.Table, pl.(*writePlan), ev)
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
//
// Its scratch — hash builds, probe and fetch buffers, the top-n's
// buffer, the group map and slabs — outlives the execution: the plan
// pools its runs (newRun, release), so the next execution of the plan
// reuses what this one grew. Release clears every slice and map that
// could hold a row, and nothing the Result holds comes from the pool.
type selectRun struct {
	p  *selectPlan
	tx *storage.Txn
	ev *env
	// hashes[k] is table k's hash-join build, made on first probe.
	hashes []hashBuild
	// bufs[k] holds the rows of table k's latest index read — a probe's,
	// or for k = 0 the keyed fetch's — and is reused by the next one.
	bufs [][]storage.KV
	// fetchKeys holds the keyed fetch's keys.
	fetchKeys []any
	// run holds a join walk's tuples of equal ORDER BY value (joinWalk).
	run []walked

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
	// tuple backs ev.rows for a statement of up to four tables.
	tuple [4][]any
}

// hashBuild is a joined table's rows grouped by their join column's
// encoded value, each group in primary-key order. A pooled build keeps
// its map and group slices, emptied.
type hashBuild struct {
	built bool
	group map[string]int
	rows  [][][]any
}

// reset empties the build for the next execution, keeping its storage.
func (h *hashBuild) reset() {
	clear(h.group)
	for g := range h.rows {
		clear(h.rows[g])
		h.rows[g] = h.rows[g][:0]
	}
	h.rows = h.rows[:0]
	h.built = false
}

// newRun returns a run of p for one execution in tx, from the pool when
// it has one.
func (p *selectPlan) newRun(tx *storage.Txn, ev *env) *selectRun {
	r, _ := p.runs.Get().(*selectRun)
	if r == nil {
		r = &selectRun{p: p, top: topN{order: p.order, n: p.keep}}
		if len(p.tables) > 1 {
			r.bufs = make([][]storage.KV, len(p.tables))
		}
		if p.aggregated {
			r.groups = map[string]int{}
		}
	}
	r.tx, r.ev = tx, ev
	if len(p.tables) <= len(r.tuple) {
		ev.rows = r.tuple[:len(p.tables)]
	} else {
		ev.rows = make([][]any, len(p.tables))
	}
	if !p.aggregated {
		// No rows is an empty Rows, not a nil one; the wire tells them
		// apart. The slice is the Result's, never the pool's; an ordered
		// stop reserves its rows up front.
		n := 0
		if p.inOrder && p.keep > 0 {
			n = min(p.keep, maxPresized)
		}
		r.rows = make([][]any, 0, n)
	}
	return r
}

// maxPresized caps the output rows an ordered stop reserves up front.
const maxPresized = 64

// release clears r of every row it refers to and returns it to p's pool.
func (p *selectPlan) release(r *selectRun) {
	for k := range r.hashes {
		r.hashes[k].reset()
	}
	for k := range r.bufs {
		clear(r.bufs[k])
		r.bufs[k] = r.bufs[k][:0]
	}
	clear(r.fetchKeys)
	r.fetchKeys = r.fetchKeys[:0]
	clear(r.run)
	r.run = r.run[:0]
	r.top.reset()
	clear(r.out) // a projection the top-n turned away: no Result holds it
	clear(r.keys)
	clear(r.groups)
	clear(r.firsts)
	r.firsts = r.firsts[:0]
	clear(r.aggs)
	r.aggs = r.aggs[:0]
	r.tuple = [4][]any{}
	r.tx, r.ev, r.rows = nil, nil, nil
	p.runs.Put(r)
}

// execSelect runs a planned SELECT.
func execSelect(tx *storage.Txn, p *selectPlan, ev *env) (*Result, error) {
	r := p.newRun(tx, ev)
	defer p.release(r)

	var err error
	switch {
	case p.joinWalk:
		err = r.joinWalk()
	case p.tables[0].fetch != "":
		err = r.keyedFetch()
	default:
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
	return scanPath(r.tx, base.name, base.resolve(r.ev.consts), edge == "max", func(kv storage.KV) (bool, error) {
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
	keys := r.fetchKeys[:0]
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
	r.fetchKeys = keys
	path := base.resolve(r.ev.consts)
	r.bufs[0], err = r.tx.AppendIndexIn(r.bufs[0][:0], base.name, base.fetch, keys, path.lo, path.hi)
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

// walked is a tuple of a join walk: the joined table's row and key, and
// the base row its join column found.
type walked struct {
	key       string
	base, row []any
}

// joinWalk drives the join from tables[1]'s index walk (plan's
// joinOrder). Each walked row whose join column is not NULL finds its
// base row by primary key; the tuples that pass the whole predicate are
// gathered per run of equal ORDER BY values and emitted sorted by (base
// key, joined key), the order the nested loop and its stable top-n give
// them. The walk stops at the end of the run that fills the output.
func (r *selectRun) joinWalk() error {
	base, t := &r.p.tables[0], &r.p.tables[1]
	col := r.p.order[0].expr.(*slot).off
	var val any // the ORDER BY value of the run gathered in r.run
	c := r.tx.IndexCursor(t.name, t.path.indexName)
	for c.Next() {
		kv := c.KV()
		if len(r.run) > 0 && storage.CompareValues(kv.Row[col], val) != 0 {
			if more, err := r.emitRun(); err != nil || !more {
				return err
			}
		}
		jv := kv.Row[t.rightCol]
		if jv == nil {
			continue
		}
		r.keyBuf = storage.EncodeValue(r.keyBuf[:0], jv)
		row, ok, err := r.tx.Get(base.name, string(r.keyBuf))
		if err != nil {
			return err
		}
		if !ok {
			continue
		}
		r.ev.rows[0], r.ev.rows[1] = row, kv.Row
		if r.p.where != nil {
			ok, err := isTrue(r.p.where, r.ev)
			if err != nil {
				return err
			}
			if !ok {
				continue
			}
		}
		val = kv.Row[col]
		r.run = append(r.run, walked{key: kv.Key, base: row, row: kv.Row})
	}
	if err := c.Err(); err != nil {
		return err
	}
	_, err := r.emitRun()
	return err
}

// emitRun emits the join walk's gathered run in (base key, joined key)
// order and empties it; it reports whether more output is wanted. The
// base key is the join value, an INT or TEXT, whose order is its
// encoding's.
func (r *selectRun) emitRun() (bool, error) {
	if len(r.run) > 1 {
		on := r.p.tables[1].rightCol
		slices.SortFunc(r.run, func(a, b walked) int {
			if c := storage.CompareValues(a.row[on], b.row[on]); c != 0 {
				return c
			}
			return strings.Compare(a.key, b.key)
		})
	}
	more := true
	for i := 0; more && i < len(r.run); i++ {
		r.ev.rows[0], r.ev.rows[1] = r.run[i].base, r.run[i].row
		var err error
		if more, err = r.emit(); err != nil {
			return false, err
		}
	}
	clear(r.run)
	r.run = r.run[:0]
	return more, nil
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
	if h.built {
		return h, nil
	}
	t := &r.p.tables[k]
	h.built = true
	if h.group == nil {
		h.group = map[string]int{}
	}
	return h, scanPath(r.tx, t.name, t.resolve(r.ev.consts), false, func(kv storage.KV) (bool, error) {
		v := kv.Row[t.rightCol]
		if v == nil {
			return true, nil
		}
		r.keyBuf = storage.EncodeValue(r.keyBuf[:0], v)
		g, ok := h.group[string(r.keyBuf)]
		if !ok {
			g = len(h.rows)
			h.group[string(r.keyBuf)] = g
			if g < cap(h.rows) {
				h.rows = h.rows[:g+1] // a group slice a reset emptied
			} else {
				h.rows = append(h.rows, nil)
			}
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
	sort.Sort((*byOrder)(t))
	if t.n >= 0 && len(t.rows) > t.n {
		t.rows = t.rows[:t.n]
		bar := t.rows[t.n-1]
		t.bar = &bar
	}
}

// byOrder sorts a topN's buffer.
type byOrder topN

func (b *byOrder) Len() int           { return len(b.rows) }
func (b *byOrder) Less(i, j int) bool { return (*topN)(b).before(&b.rows[i], &b.rows[j]) }
func (b *byOrder) Swap(i, j int)      { b.rows[i], b.rows[j] = b.rows[j], b.rows[i] }

// reset empties the buffer for the next execution, keeping its storage.
func (t *topN) reset() {
	clear(t.rows)
	t.rows, t.seq, t.bar = t.rows[:0], 0, nil
}

// appendSorted appends the kept rows, in order, to rows.
func (t *topN) appendSorted(rows [][]any) [][]any {
	t.cut()
	rows = slices.Grow(rows, len(t.rows))
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

// matchingKVs returns the rows of a planned UPDATE's or DELETE's table
// matching WHERE, all of them before the first is written.
func matchingKVs(tx *storage.Txn, table string, p *writePlan, ev *env) ([]storage.KV, error) {
	ev.rows = make([][]any, 1)
	var out []storage.KV
	err := scanPath(tx, table, p.tables[0].resolve(ev.consts), false, func(kv storage.KV) (bool, error) {
		ev.rows[0] = kv.Row
		if p.where != nil {
			if ok, err := isTrue(p.where, ev); err != nil || !ok {
				return err == nil, err
			}
		}
		out = append(out, kv)
		return true, nil
	})
	return out, err
}

func execUpdate(tx *storage.Txn, table string, p *writePlan, ev *env) (*Result, error) {
	kvs, err := matchingKVs(tx, table, p, ev)
	if err != nil {
		return nil, err
	}
	schema := p.tables[0].schema
	for _, kv := range kvs {
		ev.rows[0] = kv.Row
		// kv.Row is the stored row, shared: the new image is a copy.
		newRow := append([]any(nil), kv.Row...)
		for i, e := range p.setExpr {
			v, err := eval(e, ev)
			if err != nil {
				return nil, err
			}
			cv, err := coerceValue(v, schema.Columns[p.setIdx[i]].Type)
			if err != nil {
				return nil, err
			}
			newRow[p.setIdx[i]] = cv
		}
		if err := tx.Update(table, kv.Key, newRow); err != nil {
			return nil, err
		}
	}
	return &Result{Affected: len(kvs)}, nil
}

func execDelete(tx *storage.Txn, table string, p *writePlan, ev *env) (*Result, error) {
	kvs, err := matchingKVs(tx, table, p, ev)
	if err != nil {
		return nil, err
	}
	for _, kv := range kvs {
		if err := tx.Delete(table, kv.Key); err != nil {
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

// Stmt preparation: a prepared statement caches the parse, exposes
// the static table-set, and keeps the plan it last ran under.

// Prepared is a parsed statement ready for repeated execution with
// different parameters, on one engine or several.
type Prepared struct {
	SQL      string
	Stmt     Stmt
	TableSet []string
	ReadOnly bool

	// kept is the latest plan and the engine it was made against; it is
	// replaced whole, never edited, so readers load it without a lock.
	kept atomic.Pointer[enginePlan]
}

// enginePlan is a plan made against the engine numbered engine
// (storage.Engine.ID).
type enginePlan struct {
	engine uint64
	plan   plan
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

// Exec runs the prepared statement in tx, under the plan it keeps while
// that was made against e and fits (tablesPlan.fits), under a fresh one
// that replaces it otherwise.
func (p *Prepared) Exec(tx *storage.Txn, e *storage.Engine, params ...any) (*Result, error) {
	ev, err := newEnv(params)
	if err != nil {
		return nil, err
	}
	pl, err := p.plan(e, ev)
	if err != nil {
		return nil, err
	}
	return run(tx, e, p.Stmt, pl, ev)
}

// Explain is Explain of the plan Exec would run with these parameters.
func (p *Prepared) Explain(e *storage.Engine, params ...any) (string, error) {
	ev, err := newEnv(params)
	if err != nil {
		return "", err
	}
	pl, err := p.plan(e, ev)
	if err != nil {
		return "", err
	}
	return explain(e, p.Stmt, pl)
}

// plan returns the kept plan if it was made against e and fits this
// execution, or plans afresh and keeps that in its place; either way ev
// is left holding the plan's constants.
func (p *Prepared) plan(e *storage.Engine, ev *env) (plan, error) {
	id := e.ID()
	if k := p.kept.Load(); k != nil && k.engine == id && k.plan.base().fits(e, ev) {
		return k.plan, nil
	}
	pl, err := planStmt(e, p.Stmt, ev)
	if err != nil || pl == nil {
		return pl, err
	}
	p.kept.Store(&enginePlan{engine: id, plan: pl})
	return pl, nil
}
