package sql

import (
	"fmt"
	"strings"

	"sconrep/internal/storage"
)

// env is the runtime environment of a bound expression: the current
// tuple — one row reference per table of the statement, in FROM order;
// a joined row is never materialised — the statement parameters, and,
// while a group's output row is computed, that group's aggregate states.
type env struct {
	rows   [][]any
	params []any // normalised once, by ExecStmt
	aggs   []aggState
}

// slot is a column reference bound to its position in the tuple. bind
// replaces every *Col by a slot once per execution, so no name is
// resolved per row.
type slot struct {
	tab, off int
	typ      storage.ColType
}

// aggSlot is an aggregate bound to its position in a group's states,
// its argument bound.
type aggSlot struct {
	fn       string
	star     bool
	distinct bool
	arg      Expr
	idx      int
}

func (*slot) isExpr()    {}
func (*aggSlot) isExpr() {}

type boundTable struct {
	alias  string
	schema *storage.Schema
}

// binder resolves the names of a statement's expressions against its
// tables. Whatever it cannot resolve is an error of the statement, found
// before any row is read.
type binder struct {
	tables  []boundTable
	nparams int
	// aggs collects the aggregates bound so far; allowAgg says whether
	// one may appear in the expression being bound.
	aggs     []*aggSlot
	allowAgg bool
}

// bind returns e with every column and aggregate bound, sharing the
// subtrees that hold neither.
func (b *binder) bind(e Expr) (Expr, error) {
	switch x := e.(type) {
	case nil, *Lit:
		return e, nil
	case *Placeholder:
		if x.Index >= b.nparams {
			return nil, fmt.Errorf("sql: missing parameter %d (%d bound)", x.Index+1, b.nparams)
		}
		return x, nil
	case *Col:
		return b.resolve(x)
	case *Not:
		in, err := b.bind(x.E)
		if err != nil || in == x.E {
			return x, err
		}
		return &Not{E: in}, nil
	case *IsNull:
		in, err := b.bind(x.E)
		if err != nil || in == x.E {
			return x, err
		}
		return &IsNull{E: in, Negate: x.Negate}, nil
	case *Between:
		v, err := b.bind(x.E)
		if err != nil {
			return nil, err
		}
		lo, err := b.bind(x.Lo)
		if err != nil {
			return nil, err
		}
		hi, err := b.bind(x.Hi)
		if err != nil || (v == x.E && lo == x.Lo && hi == x.Hi) {
			return x, err
		}
		return &Between{E: v, Lo: lo, Hi: hi}, nil
	case *BinOp:
		l, err := b.bind(x.L)
		if err != nil {
			return nil, err
		}
		r, err := b.bind(x.R)
		if err != nil || (l == x.L && r == x.R) {
			return x, err
		}
		return &BinOp{Op: x.Op, L: l, R: r}, nil
	case *Agg:
		if !b.allowAgg {
			return nil, fmt.Errorf("sql: aggregate %s not allowed here", x.Func)
		}
		a := &aggSlot{fn: x.Func, star: x.Star, distinct: x.Distinct, idx: len(b.aggs)}
		if !x.Star {
			b.allowAgg = false
			arg, err := b.bind(x.Arg)
			b.allowAgg = true
			if err != nil {
				return nil, err
			}
			a.arg = arg
		}
		b.aggs = append(b.aggs, a)
		return a, nil
	}
	return nil, fmt.Errorf("sql: cannot evaluate %T", e)
}

// resolve finds the one column c names: in the table it is qualified
// with, or, unqualified, in the only table that has it.
func (b *binder) resolve(c *Col) (Expr, error) {
	var found *slot
	for ti, bt := range b.tables {
		if c.Table != "" && c.Table != bt.alias {
			continue
		}
		off := bt.schema.ColIndex(c.Name)
		if off < 0 {
			continue
		}
		if found != nil && c.Table == "" {
			return nil, fmt.Errorf("sql: ambiguous column %s", c.Name)
		}
		found = &slot{tab: ti, off: off, typ: bt.schema.Columns[off].Type}
	}
	if found == nil {
		return nil, fmt.Errorf("sql: unknown column %s", exprString(c))
	}
	return found, nil
}

// eval evaluates a bound non-aggregate expression. NULL propagates as
// nil. A table without a current row (the one group of an aggregate
// over no input) reads as NULL in every column.
func eval(e Expr, ev *env) (any, error) {
	switch x := e.(type) {
	case *Lit:
		return x.Val, nil
	case *slot:
		if r := ev.rows[x.tab]; r != nil {
			return r[x.off], nil
		}
		return nil, nil
	case *Placeholder:
		return ev.params[x.Index], nil
	case *Not:
		v, err := eval(x.E, ev)
		if err != nil {
			return nil, err
		}
		if v == nil {
			return nil, nil
		}
		b, ok := v.(bool)
		if !ok {
			return nil, fmt.Errorf("sql: NOT applied to non-boolean %T", v)
		}
		return !b, nil
	case *IsNull:
		v, err := eval(x.E, ev)
		if err != nil {
			return nil, err
		}
		return (v == nil) != x.Negate, nil
	case *Between:
		v, err := eval(x.E, ev)
		if err != nil {
			return nil, err
		}
		lo, err := eval(x.Lo, ev)
		if err != nil {
			return nil, err
		}
		hi, err := eval(x.Hi, ev)
		if err != nil {
			return nil, err
		}
		if v == nil || lo == nil || hi == nil {
			return nil, nil
		}
		if c, err := safeCompare(v, lo); err != nil || c < 0 {
			return false, err
		}
		c, err := safeCompare(v, hi)
		return c <= 0, err
	case *BinOp:
		return evalBinOp(x, ev)
	case *aggSlot:
		return ev.aggs[x.idx].result(x.fn), nil
	}
	return nil, fmt.Errorf("sql: cannot evaluate unbound %T", e)
}

// kind is what binding knows of an expression's value before a row is
// read: every value it can take is of that kind or NULL — columns are
// typed, parameters are in hand — or evaluating it may raise an error.
type kind uint8

const (
	kNull kind = iota // always NULL
	kInt
	kFloat
	kString
	kBool
	kMayFail
)

func kindOfValue(v any) kind {
	switch v.(type) {
	case nil:
		return kNull
	case int64:
		return kInt
	case float64:
		return kFloat
	case string:
		return kString
	case bool:
		return kBool
	}
	return kMayFail
}

func (k kind) numeric() bool { return k == kInt || k == kFloat }

func kindOfType(t storage.ColType) kind {
	switch t {
	case storage.TInt:
		return kInt
	case storage.TFloat:
		return kFloat
	case storage.TString:
		return kString
	case storage.TBool:
		return kBool
	}
	return kMayFail
}

// comparableKinds reports whether CompareValues accepts the two kinds;
// a NULL operand is never compared.
func comparableKinds(a, b kind) bool {
	return a != kMayFail && b != kMayFail && (a == kNull || b == kNull || a == b || (a.numeric() && b.numeric()))
}

// kindOf types a bound expression the way eval would evaluate it. Its
// one use is to decide whether a predicate is free of evaluation errors,
// which is what makes applying its conjuncts early, and skipping rows
// on them, indistinguishable from applying it whole.
func kindOf(e Expr, params []any) kind {
	switch x := e.(type) {
	case *Lit:
		return kindOfValue(x.Val)
	case *Placeholder:
		return kindOfValue(params[x.Index])
	case *slot:
		return kindOfType(x.typ)
	case *Not:
		if k := kindOf(x.E, params); k == kNull || k == kBool {
			return k
		}
	case *IsNull:
		if kindOf(x.E, params) != kMayFail {
			return kBool
		}
	case *Between:
		v, lo, hi := kindOf(x.E, params), kindOf(x.Lo, params), kindOf(x.Hi, params)
		if v != kMayFail && lo != kMayFail && hi != kMayFail && comparableKinds(v, lo) && comparableKinds(v, hi) {
			return kBool
		}
	case *BinOp:
		l, r := kindOf(x.L, params), kindOf(x.R, params)
		if l == kMayFail || r == kMayFail {
			return kMayFail
		}
		switch x.Op {
		case "AND", "OR":
			return kBool // a non-boolean operand counts as UNKNOWN
		case "=", "<>", "<", "<=", ">", ">=":
			if comparableKinds(l, r) {
				return kBool
			}
		case "LIKE":
			if (l == kNull || l == kString) && (r == kNull || r == kString) {
				return kBool
			}
		case "+", "-", "*": // "/" can divide by zero
			switch {
			case l == kNull || r == kNull:
				return kNull
			case l == kInt && r == kInt:
				return kInt
			case l.numeric() && r.numeric():
				return kFloat
			}
		}
	}
	return kMayFail
}

// isTrue evaluates a predicate and reports whether it is TRUE; FALSE
// and UNKNOWN both reject a row.
func isTrue(e Expr, ev *env) (bool, error) {
	v, err := eval(e, ev)
	if err != nil {
		return false, err
	}
	b, ok := v.(bool)
	return ok && b, nil
}

func evalBinOp(x *BinOp, ev *env) (any, error) {
	// AND/OR implement three-valued logic with short circuits.
	switch x.Op {
	case "AND", "OR":
		l, err := eval(x.L, ev)
		if err != nil {
			return nil, err
		}
		lb, lNull := toBool3(l)
		if x.Op == "AND" && !lNull && !lb {
			return false, nil
		}
		if x.Op == "OR" && !lNull && lb {
			return true, nil
		}
		r, err := eval(x.R, ev)
		if err != nil {
			return nil, err
		}
		rb, rNull := toBool3(r)
		switch x.Op {
		case "AND":
			if !rNull && !rb {
				return false, nil
			}
			if lNull || rNull {
				return nil, nil
			}
			return lb && rb, nil
		default: // OR
			if !rNull && rb {
				return true, nil
			}
			if lNull || rNull {
				return nil, nil
			}
			return lb || rb, nil
		}
	}

	l, err := eval(x.L, ev)
	if err != nil {
		return nil, err
	}
	r, err := eval(x.R, ev)
	if err != nil {
		return nil, err
	}
	switch x.Op {
	case "=", "<>", "<", "<=", ">", ">=":
		if l == nil || r == nil {
			return nil, nil
		}
		cmp, err := safeCompare(l, r)
		if err != nil {
			return nil, err
		}
		switch x.Op {
		case "=":
			return cmp == 0, nil
		case "<>":
			return cmp != 0, nil
		case "<":
			return cmp < 0, nil
		case "<=":
			return cmp <= 0, nil
		case ">":
			return cmp > 0, nil
		default:
			return cmp >= 0, nil
		}
	case "LIKE":
		if l == nil || r == nil {
			return nil, nil
		}
		ls, ok1 := l.(string)
		rs, ok2 := r.(string)
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("sql: LIKE requires strings, got %T and %T", l, r)
		}
		return likeMatch(ls, rs), nil
	case "+", "-", "*", "/":
		if l == nil || r == nil {
			return nil, nil
		}
		return arith(x.Op, l, r)
	}
	return nil, fmt.Errorf("sql: unknown operator %q", x.Op)
}

// toBool3 maps a value to (bool, isNull) for three-valued logic.
// Non-boolean non-nil values are treated as an error upstream; here we
// conservatively map them to NULL.
func toBool3(v any) (bool, bool) {
	if v == nil {
		return false, true
	}
	if b, ok := v.(bool); ok {
		return b, false
	}
	return false, true
}

// safeCompare orders two non-NULL values, or fails where CompareValues
// would panic: on values of different, non-numeric types.
func safeCompare(a, b any) (int, error) {
	if !comparableKinds(kindOfValue(a), kindOfValue(b)) {
		return 0, fmt.Errorf("sql: cannot compare %T with %T", a, b)
	}
	return storage.CompareValues(a, b), nil
}

func arith(op string, l, r any) (any, error) {
	li, lInt := l.(int64)
	ri, rInt := r.(int64)
	if lInt && rInt {
		switch op {
		case "+":
			return li + ri, nil
		case "-":
			return li - ri, nil
		case "*":
			return li * ri, nil
		default:
			if ri == 0 {
				return nil, fmt.Errorf("sql: division by zero")
			}
			return li / ri, nil
		}
	}
	lf, err := toFloat(l)
	if err != nil {
		return nil, err
	}
	rf, err := toFloat(r)
	if err != nil {
		return nil, err
	}
	switch op {
	case "+":
		return lf + rf, nil
	case "-":
		return lf - rf, nil
	case "*":
		return lf * rf, nil
	default:
		if rf == 0 {
			return nil, fmt.Errorf("sql: division by zero")
		}
		return lf / rf, nil
	}
}

func toFloat(v any) (float64, error) {
	switch t := v.(type) {
	case int64:
		return float64(t), nil
	case float64:
		return t, nil
	default:
		return 0, fmt.Errorf("sql: %T is not numeric", v)
	}
}

// likeMatch implements SQL LIKE with % (any run) and _ (any single
// character) wildcards, matching bytewise.
func likeMatch(s, pattern string) bool {
	// Dynamic-programming two-pointer match with backtracking on the
	// last %.
	si, pi := 0, 0
	starP, starS := -1, 0
	for si < len(s) {
		switch {
		case pi < len(pattern) && (pattern[pi] == '_' || pattern[pi] == s[si]):
			si++
			pi++
		case pi < len(pattern) && pattern[pi] == '%':
			starP, starS = pi, si
			pi++
		case starP >= 0:
			starS++
			si, pi = starS, starP+1
		default:
			return false
		}
	}
	for pi < len(pattern) && pattern[pi] == '%' {
		pi++
	}
	return pi == len(pattern)
}

// NormalizeParams is the one rule statement parameters follow, on
// every path that takes them: Go integer types widen to int64, float32
// to float64, and anything but nil, int64, float64, string and bool is
// refused. params itself is returned when every value is already
// canonical, a copy otherwise.
func NormalizeParams(params []any) ([]any, error) {
	out := params
	for i, p := range params {
		var v any
		switch x := p.(type) {
		case nil, int64, float64, string, bool:
			continue
		case int:
			v = int64(x)
		case int32:
			v = int64(x)
		case uint32:
			v = int64(x)
		case float32:
			v = float64(x)
		default:
			return nil, fmt.Errorf("sql: unsupported parameter type %T", p)
		}
		if &out[0] == &params[0] {
			out = append([]any(nil), params...)
		}
		out[i] = v
	}
	return out, nil
}

// exprString renders an expression for column headers.
func exprString(e Expr) string {
	switch x := e.(type) {
	case *Lit:
		return storage.FormatValue(x.Val)
	case *Col:
		if x.Table != "" {
			return x.Table + "." + x.Name
		}
		return x.Name
	case *Placeholder:
		return "?"
	case *Not:
		return "NOT " + exprString(x.E)
	case *IsNull:
		if x.Negate {
			return exprString(x.E) + " IS NOT NULL"
		}
		return exprString(x.E) + " IS NULL"
	case *Between:
		return fmt.Sprintf("%s BETWEEN %s AND %s", exprString(x.E), exprString(x.Lo), exprString(x.Hi))
	case *BinOp:
		return fmt.Sprintf("(%s %s %s)", exprString(x.L), x.Op, exprString(x.R))
	case *Agg:
		if x.Star {
			return "COUNT(*)"
		}
		d := ""
		if x.Distinct {
			d = "DISTINCT "
		}
		return fmt.Sprintf("%s(%s%s)", strings.ToUpper(x.Func), d, exprString(x.Arg))
	}
	return "?expr?"
}
