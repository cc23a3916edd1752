package sql_test

import (
	"fmt"
	"reflect"
	"sort"
	"strings"

	"sconrep/internal/sql"
	"sconrep/internal/storage"
)

// This file is the reference evaluator the differential tests compare
// the executor against. It shares nothing with it but the parser's AST
// and storage's value comparison: tables are slices of rows kept in
// primary-key order by comparing key values (not their encoding), a
// SELECT is the cross product of its tables narrowed by ON, then WHERE,
// then GROUP BY, then a stable sort, then OFFSET and LIMIT — no access
// path, no early filter, no early stop — and names are looked up per
// row. What it defines is the semantics the executor must keep, row for
// row and in order.

// refTable is one table of the oracle's database.
type refTable struct {
	schema *storage.Schema
	rows   [][]any // in primary-key order
}

type refDB map[string]*refTable

func (db refDB) create(s *storage.Schema) { db[s.Table] = &refTable{schema: s} }

// keyCompare orders two rows of t by primary key, column by column.
func (t *refTable) keyCompare(a, b []any) int {
	for _, k := range t.schema.Key {
		i := t.schema.ColIndex(k)
		if c := storage.CompareValues(a[i], b[i]); c != 0 {
			return c
		}
	}
	return 0
}

// find returns the position of the row with row's key, or where it
// would go.
func (t *refTable) find(row []any) (int, bool) {
	i := sort.Search(len(t.rows), func(i int) bool { return t.keyCompare(t.rows[i], row) >= 0 })
	return i, i < len(t.rows) && t.keyCompare(t.rows[i], row) == 0
}

// put inserts or replaces the row with row's key.
func (t *refTable) put(row []any) {
	i, found := t.find(row)
	if !found {
		t.rows = append(t.rows, nil)
		copy(t.rows[i+1:], t.rows[i:])
	}
	t.rows[i] = row
}

// drop deletes the row with row's key, if present.
func (t *refTable) drop(row []any) {
	if i, found := t.find(row); found {
		t.rows = append(t.rows[:i], t.rows[i+1:]...)
	}
}

// refScope resolves column names the slow way: by walking the tables of
// the statement for every reference.
type refScope struct {
	aliases []string
	tables  []*refTable
}

// tuple is one row per table of the scope; nil stands for "no row" (the
// single group of an aggregate over no input).
type tuple [][]any

func (sc *refScope) lookup(c *sql.Col) (tab, off int, err error) {
	tab = -1
	for ti, t := range sc.tables {
		if c.Table != "" && c.Table != sc.aliases[ti] {
			continue
		}
		ci := t.schema.ColIndex(c.Name)
		if ci < 0 {
			continue
		}
		if tab >= 0 && c.Table == "" {
			return 0, 0, fmt.Errorf("ref: ambiguous column %s", c.Name)
		}
		tab, off = ti, ci
	}
	if tab < 0 {
		return 0, 0, fmt.Errorf("ref: unknown column %s.%s", c.Table, c.Name)
	}
	return tab, off, nil
}

// check reports a name that does not resolve, or an aggregate where
// none may stand, anywhere in e: errors of the statement, raised
// whether or not a row reaches them.
func (sc *refScope) check(e sql.Expr, aggOK bool, nparams int) error {
	switch x := e.(type) {
	case nil, *sql.Lit:
	case *sql.Placeholder:
		if x.Index >= nparams {
			return fmt.Errorf("ref: missing parameter %d", x.Index+1)
		}
	case *sql.Col:
		_, _, err := sc.lookup(x)
		return err
	case *sql.Not:
		return sc.check(x.E, aggOK, nparams)
	case *sql.IsNull:
		return sc.check(x.E, aggOK, nparams)
	case *sql.Between:
		for _, sub := range []sql.Expr{x.E, x.Lo, x.Hi} {
			if err := sc.check(sub, aggOK, nparams); err != nil {
				return err
			}
		}
	case *sql.BinOp:
		if err := sc.check(x.L, aggOK, nparams); err != nil {
			return err
		}
		return sc.check(x.R, aggOK, nparams)
	case *sql.Agg:
		if !aggOK {
			return fmt.Errorf("ref: aggregate not allowed here")
		}
		if !x.Star {
			return sc.check(x.Arg, false, nparams)
		}
	}
	return nil
}

// refEval evaluates e on one tuple; group, when not nil, is the set of
// tuples aggregates range over.
func (sc *refScope) refEval(e sql.Expr, tp tuple, group []tuple, params []any) (any, error) {
	switch x := e.(type) {
	case *sql.Lit:
		return x.Val, nil
	case *sql.Placeholder:
		return params[x.Index], nil
	case *sql.Col:
		tab, off, err := sc.lookup(x)
		if err != nil {
			return nil, err
		}
		if tp == nil || tp[tab] == nil {
			return nil, nil
		}
		return tp[tab][off], nil
	case *sql.Not:
		v, err := sc.refEval(x.E, tp, group, params)
		if err != nil || v == nil {
			return nil, err
		}
		b, ok := v.(bool)
		if !ok {
			return nil, fmt.Errorf("ref: NOT of %T", v)
		}
		return !b, nil
	case *sql.IsNull:
		v, err := sc.refEval(x.E, tp, group, params)
		if err != nil {
			return nil, err
		}
		return (v == nil) != x.Negate, nil
	case *sql.Between:
		v, err := sc.refEval(x.E, tp, group, params)
		if err != nil {
			return nil, err
		}
		lo, err := sc.refEval(x.Lo, tp, group, params)
		if err != nil {
			return nil, err
		}
		hi, err := sc.refEval(x.Hi, tp, group, params)
		if err != nil {
			return nil, err
		}
		if v == nil || lo == nil || hi == nil {
			return nil, nil
		}
		c, err := refCompare(v, lo)
		if err != nil || c < 0 {
			return false, err
		}
		c, err = refCompare(v, hi)
		return c <= 0, err
	case *sql.BinOp:
		return sc.refBinOp(x, tp, group, params)
	case *sql.Agg:
		if group == nil {
			return nil, fmt.Errorf("ref: aggregate outside an aggregated SELECT")
		}
		return sc.refAgg(x, group, params)
	}
	return nil, fmt.Errorf("ref: cannot evaluate %T", e)
}

// tri is SQL's three-valued truth of a value: non-booleans count as
// UNKNOWN, as the executor has it.
func tri(v any) (val, known bool) {
	b, ok := v.(bool)
	return b, ok
}

func (sc *refScope) refBinOp(x *sql.BinOp, tp tuple, group []tuple, params []any) (any, error) {
	l, err := sc.refEval(x.L, tp, group, params)
	if err != nil {
		return nil, err
	}
	if x.Op == "AND" || x.Op == "OR" {
		isOr := x.Op == "OR"
		lv, lk := tri(l)
		if lk && lv == isOr {
			return isOr, nil // FALSE AND …, TRUE OR …: the right side is not evaluated
		}
		r, err := sc.refEval(x.R, tp, group, params)
		if err != nil {
			return nil, err
		}
		rv, rk := tri(r)
		switch {
		case rk && rv == isOr:
			return isOr, nil
		case !lk || !rk:
			return nil, nil
		}
		return !isOr, nil
	}
	r, err := sc.refEval(x.R, tp, group, params)
	if err != nil {
		return nil, err
	}
	if l == nil || r == nil {
		return nil, nil
	}
	switch x.Op {
	case "=", "<>", "<", "<=", ">", ">=":
		c, err := refCompare(l, r)
		if err != nil {
			return nil, err
		}
		return map[string]bool{"=": c == 0, "<>": c != 0, "<": c < 0, "<=": c <= 0, ">": c > 0, ">=": c >= 0}[x.Op], nil
	case "LIKE":
		ls, ok1 := l.(string)
		rs, ok2 := r.(string)
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("ref: LIKE on %T, %T", l, r)
		}
		return refLike(ls, rs), nil
	case "+", "-", "*", "/":
		li, lInt := l.(int64)
		ri, rInt := r.(int64)
		if lInt && rInt {
			switch x.Op {
			case "+":
				return li + ri, nil
			case "-":
				return li - ri, nil
			case "*":
				return li * ri, nil
			}
			if ri == 0 {
				return nil, fmt.Errorf("ref: division by zero")
			}
			return li / ri, nil
		}
		lf, ok1 := refFloat(l)
		rf, ok2 := refFloat(r)
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("ref: arithmetic on %T, %T", l, r)
		}
		switch x.Op {
		case "+":
			return lf + rf, nil
		case "-":
			return lf - rf, nil
		case "*":
			return lf * rf, nil
		}
		if rf == 0 {
			return nil, fmt.Errorf("ref: division by zero")
		}
		return lf / rf, nil
	}
	return nil, fmt.Errorf("ref: unknown operator %q", x.Op)
}

func refFloat(v any) (float64, bool) {
	switch n := v.(type) {
	case int64:
		return float64(n), true
	case float64:
		return n, true
	}
	return 0, false
}

// refCompare orders two non-NULL values: numbers with numbers, otherwise
// like with like.
func refCompare(a, b any) (int, error) {
	_, an := refFloat(a)
	_, bn := refFloat(b)
	if (an && bn) || reflect.TypeOf(a) == reflect.TypeOf(b) {
		return storage.CompareValues(a, b), nil
	}
	return 0, fmt.Errorf("ref: cannot compare %T with %T", a, b)
}

// refLike matches % and _ by plain recursion.
func refLike(s, pat string) bool {
	if pat == "" {
		return s == ""
	}
	switch pat[0] {
	case '%':
		for i := 0; i <= len(s); i++ {
			if refLike(s[i:], pat[1:]) {
				return true
			}
		}
		return false
	case '_':
		return s != "" && refLike(s[1:], pat[1:])
	}
	return s != "" && s[0] == pat[0] && refLike(s[1:], pat[1:])
}

// refAgg computes one aggregate over a group.
func (sc *refScope) refAgg(a *sql.Agg, group []tuple, params []any) (any, error) {
	if a.Star {
		return int64(len(group)), nil
	}
	var vals []any
	for _, tp := range group {
		v, err := sc.refEval(a.Arg, tp, nil, params)
		if err != nil {
			return nil, err
		}
		if v == nil {
			continue
		}
		dup := false
		for _, seen := range vals {
			dup = dup || (a.Distinct && reflect.DeepEqual(seen, v))
		}
		if !dup {
			vals = append(vals, v)
		}
	}
	if a.Func == "COUNT" {
		return int64(len(vals)), nil
	}
	if len(vals) == 0 {
		return nil, nil
	}
	switch a.Func {
	case "MIN", "MAX":
		best := vals[0]
		for _, v := range vals[1:] {
			if c := storage.CompareValues(v, best); (a.Func == "MIN" && c < 0) || (a.Func == "MAX" && c > 0) {
				best = v
			}
		}
		return best, nil
	case "SUM", "AVG":
		var si int64
		var sf float64
		float := false
		for _, v := range vals {
			switch n := v.(type) {
			case int64:
				si += n
				sf += float64(n)
			case float64:
				float = true
				sf += n
			}
		}
		switch {
		case a.Func == "AVG":
			return sf / float64(len(vals)), nil
		case float:
			return sf, nil
		}
		return si, nil
	}
	return nil, fmt.Errorf("ref: unknown aggregate %s", a.Func)
}

func refHasAgg(e sql.Expr) bool {
	switch x := e.(type) {
	case *sql.Agg:
		return true
	case *sql.Not:
		return refHasAgg(x.E)
	case *sql.IsNull:
		return refHasAgg(x.E)
	case *sql.Between:
		return refHasAgg(x.E) || refHasAgg(x.Lo) || refHasAgg(x.Hi)
	case *sql.BinOp:
		return refHasAgg(x.L) || refHasAgg(x.R)
	}
	return false
}

// refSelect evaluates a SELECT against the oracle's database.
func refSelect(db refDB, s *sql.Select, params []any) ([][]any, error) {
	sc := &refScope{}
	add := func(r sql.TableRef) error {
		t, ok := db[r.Table]
		if !ok {
			return fmt.Errorf("ref: no table %s", r.Table)
		}
		sc.aliases = append(sc.aliases, r.Alias)
		sc.tables = append(sc.tables, t)
		return nil
	}
	if err := add(s.From); err != nil {
		return nil, err
	}

	// FROM: the cross product, one join at a time, narrowed by ON. ON
	// matches non-NULL values that compare equal (1 = 1.0; a string and a
	// number never).
	var tuples []tuple
	for _, row := range sc.tables[0].rows {
		tuples = append(tuples, tuple{row})
	}
	for _, j := range s.Joins {
		if err := add(j.Right); err != nil {
			return nil, err
		}
		k := len(sc.tables) - 1
		at, ao, err := sc.lookup(j.On.L.(*sql.Col))
		if err != nil {
			return nil, err
		}
		bt, bo, err := sc.lookup(j.On.R.(*sql.Col))
		if err != nil {
			return nil, err
		}
		if (at == k) == (bt == k) {
			return nil, fmt.Errorf("ref: ON must relate the new table to an earlier one")
		}
		var next []tuple
		for _, tp := range tuples {
			for _, row := range sc.tables[k].rows {
				ext := append(append(tuple{}, tp...), row)
				if l, r := ext[at][ao], ext[bt][bo]; l != nil && r != nil && storage.ValuesEqual(l, r) {
					next = append(next, ext)
				}
			}
		}
		tuples = next
	}

	// Names and parameters are checked before any row is looked at.
	items := s.Items
	if len(items) > 0 {
		var expanded []sql.SelectItem
		for _, it := range items {
			if !it.Star {
				expanded = append(expanded, it)
				continue
			}
			for ti, t := range sc.tables {
				for _, c := range t.schema.Columns {
					expanded = append(expanded, sql.SelectItem{Expr: &sql.Col{Table: sc.aliases[ti], Name: c.Name}})
				}
			}
		}
		items = expanded
	}
	aggregated := len(s.GroupBy) > 0
	for _, it := range items {
		aggregated = aggregated || refHasAgg(it.Expr)
	}
	// outCol maps an ORDER BY key of an aggregated SELECT to the output
	// column it names, by alias or by being the same expression.
	outCol := func(e sql.Expr) int {
		for i, it := range items {
			if c, ok := e.(*sql.Col); ok && it.Alias != "" && c.Table == "" && c.Name == it.Alias {
				return i
			}
			if reflect.DeepEqual(e, it.Expr) {
				return i
			}
		}
		return -1
	}
	if err := sc.check(s.Where, false, len(params)); err != nil {
		return nil, err
	}
	for _, it := range items {
		if err := sc.check(it.Expr, true, len(params)); err != nil {
			return nil, err
		}
	}
	for _, g := range s.GroupBy {
		if err := sc.check(g, false, len(params)); err != nil {
			return nil, err
		}
	}
	for _, o := range s.OrderBy {
		if aggregated && outCol(o.Expr) >= 0 {
			continue
		}
		if err := sc.check(o.Expr, false, len(params)); err != nil {
			return nil, err
		}
	}

	// WHERE.
	if s.Where != nil {
		var kept []tuple
		for _, tp := range tuples {
			v, err := sc.refEval(s.Where, tp, nil, params)
			if err != nil {
				return nil, err
			}
			if b, ok := v.(bool); ok && b {
				kept = append(kept, tp)
			}
		}
		tuples = kept
	}

	// Projection, grouped or plain; sort keys alongside.
	type outRow struct {
		out, keys []any
	}
	var rows []outRow
	project := func(tp tuple, group []tuple) error {
		r := outRow{out: make([]any, len(items)), keys: make([]any, len(s.OrderBy))}
		for i, it := range items {
			v, err := sc.refEval(it.Expr, tp, group, params)
			if err != nil {
				return err
			}
			r.out[i] = v
		}
		for i, o := range s.OrderBy {
			if c := outCol(o.Expr); aggregated && c >= 0 {
				r.keys[i] = r.out[c]
				continue
			}
			v, err := sc.refEval(o.Expr, tp, nil, params)
			if err != nil {
				return err
			}
			r.keys[i] = v
		}
		rows = append(rows, r)
		return nil
	}
	if aggregated {
		var names []string
		groups := map[string][]tuple{}
		for _, tp := range tuples {
			var sb strings.Builder
			for _, g := range s.GroupBy {
				v, err := sc.refEval(g, tp, nil, params)
				if err != nil {
					return nil, err
				}
				fmt.Fprintf(&sb, "%T:%v|", v, v)
			}
			if _, seen := groups[sb.String()]; !seen {
				names = append(names, sb.String())
			}
			groups[sb.String()] = append(groups[sb.String()], tp)
		}
		if len(tuples) == 0 && len(s.GroupBy) == 0 {
			names, groups[""] = []string{""}, []tuple{}
		}
		for _, name := range names {
			g := groups[name]
			var first tuple
			if len(g) > 0 {
				first = g[0]
			}
			if err := project(first, g); err != nil {
				return nil, err
			}
		}
	} else {
		for _, tp := range tuples {
			if err := project(tp, nil); err != nil {
				return nil, err
			}
		}
	}

	// ORDER BY, stable; then OFFSET and LIMIT.
	sort.SliceStable(rows, func(a, b int) bool {
		for i, o := range s.OrderBy {
			if c := storage.CompareValues(rows[a].keys[i], rows[b].keys[i]); c != 0 {
				return (c < 0) != o.Desc
			}
		}
		return false
	})
	if s.Offset >= len(rows) {
		rows = nil
	} else {
		rows = rows[s.Offset:]
	}
	if s.Limit >= 0 && len(rows) > s.Limit {
		rows = rows[:s.Limit]
	}
	out := make([][]any, len(rows))
	for i, r := range rows {
		out[i] = r.out
	}
	return out, nil
}
