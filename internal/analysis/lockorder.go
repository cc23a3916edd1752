package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// LockOrder proves the package's mutex acquisition order acyclic — the
// static half of the deadlock-freedom argument the sharded certifier's
// cross-shard reserve/seal path makes in comments. It builds a lock
// graph whose nodes are mutex classes (a named struct's sync.Mutex /
// sync.RWMutex field, e.g. sequencer.mu) and whose edges come from two
// sources:
//
//   - declared hierarchy: a mutex field annotated "// locks after
//     <mu>" (sibling) or "// locks after <Type>.<mu>" (another struct
//     in the package) declares that the named mutex is always
//     acquired first;
//   - observed acquisitions: an intraprocedural walk of every function
//     body (closures as separate units; calls to local closure
//     variables apply the closure's direct lock effects at the call
//     site) records each Lock/RLock taken while another class is
//     held, and calls to package functions add edges to every class
//     the callee transitively acquires.
//
// Any cycle in the combined graph is an Error: two code paths can
// interleave into a deadlock. An observed edge absent from the
// declared hierarchy is a Warning: the order exists in the code but
// not in the contract, so the next refactor can silently invert it.
//
// Same-class multi-acquire (holding several sequencer.mu at once) is
// the cross-shard case the paper's sharding relies on; it is only
// legal as a loop that provably ascends:
//
//   - the mutex field carries "// locks self ascending";
//   - the loop carries "// lockorder: ascending" on its line or the
//     line above, and iterates forward over a slice/array (a map
//     range or a descending 3-clause loop is an Error — the seeded
//     shard-ID slices are ascending by construction);
//   - the locks are released after the loop (a loop that also unlocks
//     per iteration is the ordinary single-hold pattern and needs no
//     annotation).
//
// "// lockorder: ignore" on an acquisition's line (or the line above)
// exempts it, for the rare lock whose ordering is proven elsewhere.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc:  "the inter-mutex acquisition graph must be acyclic and match the declared \"locks after\" hierarchy",
	Run:  runLockOrder,
}

const (
	lockOrderAscendTag = "lockorder: ascending"
	lockOrderIgnoreTag = "lockorder: ignore"
)

var (
	locksAfterRe = regexp.MustCompile(`locks after (?:(\w+)\.)?(\w+)`)
	locksSelfRe  = regexp.MustCompile(`locks self ascending`)
)

// lockClass identifies a mutex field within the package; every
// instance of the struct shares the class.
type lockClass struct {
	typeName string
	field    string
}

func (c lockClass) String() string { return c.typeName + "." + c.field }

// classInfo is one mutex class's declaration site and annotations.
type classInfo struct {
	pos           token.Pos
	selfAscending bool
	after         []lockClass // declared predecessors (outer locks)
	afterPos      token.Pos
}

type lockEdge struct{ from, to lockClass }

type lockOrderPkg struct {
	pass     *Pass
	classes  map[lockClass]*classInfo
	tagLines map[string]map[int]string // filename -> line -> tag
	observed map[lockEdge]token.Pos    // first witness position
	// trans maps each package function to the classes it (or anything
	// it calls inside the package) acquires.
	trans map[*types.Func]map[lockClass]bool
}

func runLockOrder(pass *Pass) error {
	lo := &lockOrderPkg{
		pass:     pass,
		classes:  map[lockClass]*classInfo{},
		tagLines: map[string]map[int]string{},
		observed: map[lockEdge]token.Pos{},
		trans:    map[*types.Func]map[lockClass]bool{},
	}
	lo.collectClasses()
	if len(lo.classes) == 0 {
		return nil
	}
	lo.collectTags()
	lo.buildCallGraph()
	for _, u := range lo.units() {
		lo.checkUnit(u)
	}
	lo.checkGraph()
	return nil
}

// collectClasses finds every sync.Mutex / sync.RWMutex struct field
// and parses its hierarchy annotations.
func (lo *lockOrderPkg) collectClasses() {
	type pendingAfter struct {
		class lockClass
		ref   lockClass
		pos   token.Pos
	}
	var pending []pendingAfter
	for _, file := range lo.pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			for _, f := range st.Fields.List {
				if !isMutexType(lo.pass, f.Type) {
					continue
				}
				for _, name := range f.Names {
					c := lockClass{ts.Name.Name, name.Name}
					info := &classInfo{pos: name.Pos()}
					lo.classes[c] = info
					for _, cg := range []*ast.CommentGroup{f.Doc, f.Comment} {
						if cg == nil {
							continue
						}
						text := cg.Text()
						if locksSelfRe.MatchString(text) {
							info.selfAscending = true
						}
						if m := locksAfterRe.FindStringSubmatch(text); m != nil {
							refType := m[1]
							if refType == "" {
								refType = ts.Name.Name // sibling mutex
							}
							pending = append(pending, pendingAfter{c, lockClass{refType, m[2]}, name.Pos()})
						}
					}
				}
			}
			return true
		})
	}
	// Resolve "locks after" references now that every class is known.
	for _, p := range pending {
		if _, ok := lo.classes[p.ref]; !ok {
			lo.pass.Reportf(p.pos, Error,
				"%s: \"locks after\" names %s, which is not a mutex field in this package", p.class, p.ref)
			continue
		}
		info := lo.classes[p.class]
		info.after = append(info.after, p.ref)
		info.afterPos = p.pos
	}
}

// isMutexType reports whether the field type expression is sync.Mutex
// or sync.RWMutex.
func isMutexType(pass *Pass, expr ast.Expr) bool {
	tv, ok := pass.Info.Types[expr]
	if !ok {
		return false
	}
	n, ok := tv.Type.(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Pkg().Path() == "sync" &&
		(n.Obj().Name() == "Mutex" || n.Obj().Name() == "RWMutex")
}

// collectTags records the file lines carrying lockorder tags; a tag
// covers its own line and the line below.
func (lo *lockOrderPkg) collectTags() {
	for _, file := range lo.pass.Files {
		name := lo.pass.Fset.Position(file.Pos()).Filename
		lines := map[int]string{}
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				for _, tag := range []string{lockOrderAscendTag, lockOrderIgnoreTag} {
					if strings.Contains(c.Text, tag) {
						lines[lo.pass.Fset.Position(c.End()).Line] = tag
					}
				}
			}
		}
		lo.tagLines[name] = lines
	}
}

// tagged reports whether pos's line (or the line above) carries tag.
func (lo *lockOrderPkg) tagged(pos token.Pos, tag string) bool {
	p := lo.pass.Fset.Position(pos)
	lines := lo.tagLines[p.Filename]
	return lines[p.Line] == tag || lines[p.Line-1] == tag
}

// mutexOp resolves a call to <expr>.<mu>.Lock/RLock/Unlock/RUnlock on
// a known mutex class.
func (lo *lockOrderPkg) mutexOp(call *ast.CallExpr) (class lockClass, base string, op string, ok bool) {
	sel, selOK := call.Fun.(*ast.SelectorExpr)
	if !selOK {
		return
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return
	}
	muSel, selOK := sel.X.(*ast.SelectorExpr)
	if !selOK {
		return
	}
	selection, selOK := lo.pass.Info.Selections[muSel]
	if !selOK || selection.Kind() != types.FieldVal {
		return
	}
	owner := namedOf(selection.Recv())
	if owner == nil || owner.Obj().Pkg() != lo.pass.Pkg {
		return
	}
	class = lockClass{owner.Obj().Name(), muSel.Sel.Name}
	if _, known := lo.classes[class]; !known {
		return
	}
	return class, types.ExprString(muSel.X), sel.Sel.Name, true
}

// buildCallGraph computes, for every package function, the set of
// mutex classes it transitively acquires through package-internal
// calls. Closure bodies are excluded — a closure runs when invoked,
// not when its enclosing function is called.
func (lo *lockOrderPkg) buildCallGraph() {
	direct := map[*types.Func]map[lockClass]bool{}
	callees := map[*types.Func]map[*types.Func]bool{}
	for _, file := range lo.pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			obj, ok := lo.pass.Info.Defs[fn.Name].(*types.Func)
			if !ok {
				continue
			}
			acq := map[lockClass]bool{}
			calls := map[*types.Func]bool{}
			skip := funcLitRanges(fn.Body)
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok && skip[lit] {
					return false
				}
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if class, _, op, ok := lo.mutexOp(call); ok {
					if (op == "Lock" || op == "RLock") && !lo.tagged(call.Pos(), lockOrderIgnoreTag) {
						acq[class] = true
					}
					return true
				}
				if callee := calleeFunc(lo.pass.Info, call); callee != nil && callee.Pkg() == lo.pass.Pkg {
					calls[callee] = true
				}
				return true
			})
			direct[obj] = acq
			callees[obj] = calls
		}
	}
	for obj, acq := range direct {
		t := map[lockClass]bool{}
		for c := range acq {
			t[c] = true
		}
		lo.trans[obj] = t
	}
	for changed := true; changed; {
		changed = false
		for obj := range lo.trans {
			for callee := range callees[obj] {
				for c := range lo.trans[callee] {
					if !lo.trans[obj][c] {
						lo.trans[obj][c] = true
						changed = true
					}
				}
			}
		}
	}
}

// funcLitRanges marks every FuncLit inside body (the separate units),
// so scans of body skip them.
func funcLitRanges(body ast.Node) map[*ast.FuncLit]bool {
	skip := map[*ast.FuncLit]bool{}
	first := true
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			if first && body == lit {
				first = false
				return true
			}
			skip[lit] = true
			return false
		}
		return true
	})
	return skip
}

// lockUnit is one independently-simulated function body: a FuncDecl or
// a FuncLit (closures run on their own schedule, so their acquisitions
// must respect the order independently).
type lockUnit struct {
	name string
	body *ast.BlockStmt
}

func (lo *lockOrderPkg) units() []lockUnit {
	var units []lockUnit
	for _, file := range lo.pass.Files {
		// FuncLits invoked immediately inside a defer statement run at
		// function exit as part of teardown; their unlocks are the
		// "held to end" pattern, not an independent schedule.
		deferred := map[*ast.FuncLit]bool{}
		ast.Inspect(file, func(n ast.Node) bool {
			if d, ok := n.(*ast.DeferStmt); ok {
				if lit, ok := d.Call.Fun.(*ast.FuncLit); ok {
					deferred[lit] = true
				}
			}
			return true
		})
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			units = append(units, lockUnit{fn.Name.Name, fn.Body})
		}
		ast.Inspect(file, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok && !deferred[lit] {
				units = append(units, lockUnit{"func literal", lit.Body})
			}
			return true
		})
	}
	return units
}

// lockEvent is one simulated action inside a unit, in source order.
type lockEvent struct {
	pos   token.Pos
	class lockClass
	base  string
	op    string // Lock, RLock, Unlock, RUnlock
	call  *types.Func
	loop  ast.Stmt // innermost enclosing for/range inside the unit
}

// checkUnit simulates one function body linearly: it records observed
// inter-class edges, flags unordered same-class multi-acquires, and
// structurally validates multi-acquire loops.
func (lo *lockOrderPkg) checkUnit(u lockUnit) {
	events, loops := lo.scanUnit(u)
	// Structural loop validation: a loop that acquires a class without
	// releasing it per iteration holds the whole set at once.
	multi := map[ast.Stmt]map[lockClass]bool{}
	for _, l := range loops {
		for class, positions := range l.acquires {
			if len(l.releases[class]) > 0 {
				continue // per-iteration single-hold
			}
			if multi[l.stmt] == nil {
				multi[l.stmt] = map[lockClass]bool{}
			}
			multi[l.stmt][class] = true
			lo.checkAscendingLoop(u, l.stmt, class, positions[0])
		}
	}
	// Linear simulation over position-ordered events.
	sort.SliceStable(events, func(i, j int) bool { return events[i].pos < events[j].pos })
	type heldLock struct {
		class lockClass
		base  string
		loop  ast.Stmt
	}
	var held []heldLock
	release := func(class lockClass, base string) {
		for i := len(held) - 1; i >= 0; i-- {
			if held[i].class == class && held[i].base == base {
				held = append(held[:i], held[i+1:]...)
				return
			}
		}
		for i := len(held) - 1; i >= 0; i-- {
			if held[i].class == class {
				held = append(held[:i], held[i+1:]...)
				return
			}
		}
	}
	edge := func(from, to lockClass, pos token.Pos) {
		e := lockEdge{from, to}
		if _, ok := lo.observed[e]; !ok {
			lo.observed[e] = pos
		}
	}
	for _, ev := range events {
		switch {
		case ev.call != nil:
			for _, h := range held {
				for c := range lo.trans[ev.call] {
					// Same-class reentrancy through calls is instance-
					// dependent and beyond static reach; lockcheck's
					// "caller holds" convention owns that class of bug.
					if c != h.class {
						edge(h.class, c, ev.pos)
					}
				}
			}
		case ev.op == "Lock" || ev.op == "RLock":
			if lo.tagged(ev.pos, lockOrderIgnoreTag) {
				continue
			}
			for _, h := range held {
				if h.class != ev.class {
					edge(h.class, ev.class, ev.pos)
					continue
				}
				// Same class already held: legal only as a validated
				// multi-acquire loop (both acquisitions in the same
				// tagged ascending loop are checked structurally).
				if ev.loop != nil && h.loop == ev.loop && multi[ev.loop][ev.class] {
					continue
				}
				lo.pass.Reportf(ev.pos, Error,
					"%s acquires %s (%s) while already holding %s: same-class multi-acquire is only deadlock-free as an ascending \"// lockorder: ascending\" loop over shard IDs",
					u.name, ev.class, ev.base, h.base)
			}
			held = append(held, heldLock{ev.class, ev.base, ev.loop})
		default: // Unlock, RUnlock
			release(ev.class, ev.base)
		}
	}
}

// loopInfo aggregates one loop's direct mutex activity.
type loopInfo struct {
	stmt     ast.Stmt
	acquires map[lockClass][]token.Pos
	releases map[lockClass][]token.Pos
}

// scanUnit extracts the unit's lock events (skipping nested closures
// and deferred teardown) and per-loop acquisition summaries. Calls to
// local closure variables inline the closure's direct lock effects at
// the call site.
func (lo *lockOrderPkg) scanUnit(u lockUnit) ([]lockEvent, []*loopInfo) {
	skipLits := funcLitRanges(u.body)
	// Deferred regions: anything syntactically inside a defer statement
	// is teardown — unlocks there mean "held to the end".
	var deferRanges [][2]token.Pos
	ast.Inspect(u.body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok && skipLits[lit] {
			return false
		}
		if d, ok := n.(*ast.DeferStmt); ok {
			deferRanges = append(deferRanges, [2]token.Pos{d.Pos(), d.End()})
		}
		return true
	})
	inDefer := func(pos token.Pos) bool {
		for _, r := range deferRanges {
			if pos >= r[0] && pos < r[1] {
				return true
			}
		}
		return false
	}
	// Local closures: name := func() { ... } — calling the name applies
	// the closure's direct effects (the reserve path's unlock helper).
	closures := map[types.Object]*ast.FuncLit{}
	ast.Inspect(u.body, func(n ast.Node) bool {
		asg, ok := n.(*ast.AssignStmt)
		if !ok || len(asg.Lhs) != len(asg.Rhs) {
			return true
		}
		for i, rhs := range asg.Rhs {
			lit, ok := rhs.(*ast.FuncLit)
			if !ok {
				continue
			}
			id, ok := asg.Lhs[i].(*ast.Ident)
			if !ok {
				continue
			}
			if obj := lo.pass.Info.Defs[id]; obj != nil {
				closures[obj] = lit
			} else if obj := lo.pass.Info.Uses[id]; obj != nil {
				closures[obj] = lit
			}
		}
		return true
	})

	var events []lockEvent
	loops := map[ast.Stmt]*loopInfo{}
	var loopOrder []*loopInfo
	loopFor := func(pos token.Pos) ast.Stmt { return innermostLoop(u.body, skipLits, pos) }
	record := func(class lockClass, base, op string, pos token.Pos) {
		l := loopFor(pos)
		events = append(events, lockEvent{pos: pos, class: class, base: base, op: op, loop: l})
		if l != nil {
			li := loops[l]
			if li == nil {
				li = &loopInfo{stmt: l, acquires: map[lockClass][]token.Pos{}, releases: map[lockClass][]token.Pos{}}
				loops[l] = li
				loopOrder = append(loopOrder, li)
			}
			if op == "Lock" || op == "RLock" {
				if !lo.tagged(pos, lockOrderIgnoreTag) {
					li.acquires[class] = append(li.acquires[class], pos)
				}
			} else {
				li.releases[class] = append(li.releases[class], pos)
			}
		}
	}
	ast.Inspect(u.body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok && skipLits[lit] {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if inDefer(call.Pos()) {
			return true // teardown: held to end
		}
		if class, base, op, ok := lo.mutexOp(call); ok {
			record(class, base, op, call.Pos())
			return true
		}
		if id, ok := call.Fun.(*ast.Ident); ok {
			if obj := lo.pass.Info.Uses[id]; obj != nil {
				if lit, isClosure := closures[obj]; isClosure {
					lo.inlineClosure(lit, call.Pos(), record)
					return true
				}
			}
		}
		if callee := calleeFunc(lo.pass.Info, call); callee != nil && callee.Pkg() == lo.pass.Pkg {
			events = append(events, lockEvent{pos: call.Pos(), call: callee})
		}
		return true
	})
	return events, loopOrder
}

// inlineClosure applies a local closure's direct lock/unlock effects
// at the call site (its own nested closures and defers excluded).
func (lo *lockOrderPkg) inlineClosure(lit *ast.FuncLit, at token.Pos, record func(lockClass, string, string, token.Pos)) {
	skip := funcLitRanges(lit.Body)
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if inner, ok := n.(*ast.FuncLit); ok && skip[inner] {
			return false
		}
		if _, ok := n.(*ast.DeferStmt); ok {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if class, base, op, ok := lo.mutexOp(call); ok {
				record(class, base, op, at)
			}
		}
		return true
	})
}

// innermostLoop finds the smallest for/range statement containing pos,
// ignoring loops inside nested closures.
func innermostLoop(body ast.Node, skipLits map[*ast.FuncLit]bool, pos token.Pos) ast.Stmt {
	var best ast.Stmt
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok && skipLits[lit] {
			return false
		}
		switch s := n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			if s.Pos() <= pos && pos < s.End() {
				if best == nil || (s.Pos() >= best.Pos() && s.End() <= best.End()) {
					best = s.(ast.Stmt)
				}
			}
		}
		return true
	})
	return best
}

// checkAscendingLoop validates one multi-acquire loop: annotated
// class, tagged loop, provably ascending iteration.
func (lo *lockOrderPkg) checkAscendingLoop(u lockUnit, loop ast.Stmt, class lockClass, acqPos token.Pos) {
	info := lo.classes[class]
	if info == nil || !info.selfAscending {
		lo.pass.Reportf(acqPos, Error,
			"%s acquires multiple %s locks in a loop, but the mutex field is not annotated \"// locks self ascending\": declare the discipline or release per iteration",
			u.name, class)
		return
	}
	if !lo.tagged(loop.Pos(), lockOrderAscendTag) {
		lo.pass.Reportf(loop.Pos(), Error,
			"%s holds multiple %s locks across loop iterations without a \"// %s\" tag: assert the iteration order is ascending or release per iteration",
			u.name, class, lockOrderAscendTag)
		return
	}
	switch l := loop.(type) {
	case *ast.RangeStmt:
		if tv, ok := lo.pass.Info.Types[l.X]; ok {
			switch tv.Type.Underlying().(type) {
			case *types.Slice, *types.Array, *types.Pointer:
			case *types.Map:
				lo.pass.Reportf(loop.Pos(), Error,
					"%s multi-acquires %s by ranging over a map: iteration order is unordered, so two goroutines can lock shards in opposite orders and deadlock; collect and sort the IDs first",
					u.name, class)
				return
			default:
				lo.pass.Reportf(loop.Pos(), Error,
					"%s multi-acquires %s over a non-slice range: the ascending order cannot be proven", u.name, class)
				return
			}
		}
		if call, ok := l.X.(*ast.CallExpr); ok {
			if name := calleeName(call); descendingName(name) {
				lo.pass.Reportf(loop.Pos(), Error,
					"%s multi-acquires %s over %s(...): the name suggests descending order, which inverts the lock hierarchy", u.name, class, name)
			}
		}
	case *ast.ForStmt:
		post, ok := l.Post.(*ast.IncDecStmt)
		if !ok {
			lo.pass.Reportf(loop.Pos(), Error,
				"%s multi-acquires %s in a loop whose post statement is not i++: the ascending order cannot be proven", u.name, class)
			return
		}
		if post.Tok == token.DEC {
			lo.pass.Reportf(loop.Pos(), Error,
				"%s multi-acquires %s in a descending (i--) loop: this inverts the ascending shard-ID lock order and deadlocks against any ascending path",
				u.name, class)
		}
	}
}

func descendingName(name string) bool {
	lower := strings.ToLower(name)
	return strings.Contains(lower, "reverse") || strings.Contains(lower, "desc")
}

// checkGraph combines declared and observed edges, errors on cycles,
// and warns on observed orders missing from the declared hierarchy.
func (lo *lockOrderPkg) checkGraph() {
	declared := map[lockEdge]token.Pos{}
	for c, info := range lo.classes {
		for _, outer := range info.after {
			declared[lockEdge{outer, c}] = info.afterPos
		}
	}
	adj := map[lockClass]map[lockClass]bool{}
	addEdge := func(e lockEdge) {
		if adj[e.from] == nil {
			adj[e.from] = map[lockClass]bool{}
		}
		adj[e.from][e.to] = true
	}
	for e := range declared {
		addEdge(e)
	}
	for e := range lo.observed {
		addEdge(e)
	}
	inCycle := lo.reportCycles(adj, declared)
	// Declared reachability: observed A->B is fine if the hierarchy
	// already orders A before B, possibly through intermediates.
	declAdj := map[lockClass][]lockClass{}
	for e := range declared {
		declAdj[e.from] = append(declAdj[e.from], e.to)
	}
	reaches := func(from, to lockClass) bool {
		seen := map[lockClass]bool{from: true}
		stack := []lockClass{from}
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, next := range declAdj[n] {
				if next == to {
					return true
				}
				if !seen[next] {
					seen[next] = true
					stack = append(stack, next)
				}
			}
		}
		return false
	}
	var undeclared []lockEdge
	for e := range lo.observed {
		if inCycle[e.from] && inCycle[e.to] {
			continue // the cycle Error already covers it
		}
		if !reaches(e.from, e.to) {
			undeclared = append(undeclared, e)
		}
	}
	sort.Slice(undeclared, func(i, j int) bool { return lo.observed[undeclared[i]] < lo.observed[undeclared[j]] })
	for _, e := range undeclared {
		lo.pass.Reportf(lo.observed[e], Warning,
			"%s is acquired while %s is held, but %s has no \"// locks after %s\" annotation: declare the hierarchy so refactors cannot silently invert it",
			e.to, e.from, e.to, e.from)
	}
}

// reportCycles errors once per strongly connected component of size
// > 1 and returns the set of classes involved in any cycle.
func (lo *lockOrderPkg) reportCycles(adj map[lockClass]map[lockClass]bool, declared map[lockEdge]token.Pos) map[lockClass]bool {
	// Tarjan's SCC, iteratively small-scale (lock classes are few).
	var nodes []lockClass
	for n := range adj {
		nodes = append(nodes, n)
		for m := range adj[n] {
			nodes = append(nodes, m)
		}
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].String() < nodes[j].String() })
	uniq := nodes[:0]
	var last *lockClass
	for i := range nodes {
		if last == nil || nodes[i] != *last {
			uniq = append(uniq, nodes[i])
			last = &uniq[len(uniq)-1]
		}
	}
	nodes = uniq
	index := map[lockClass]int{}
	low := map[lockClass]int{}
	onStack := map[lockClass]bool{}
	var stack []lockClass
	next := 0
	inCycle := map[lockClass]bool{}
	var strongconnect func(v lockClass)
	strongconnect = func(v lockClass) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		var succs []lockClass
		for w := range adj[v] {
			succs = append(succs, w)
		}
		sort.Slice(succs, func(i, j int) bool { return succs[i].String() < succs[j].String() })
		for _, w := range succs {
			if _, seen := index[w]; !seen {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var scc []lockClass
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				scc = append(scc, w)
				if w == v {
					break
				}
			}
			if len(scc) > 1 {
				sort.Slice(scc, func(i, j int) bool { return scc[i].String() < scc[j].String() })
				names := make([]string, len(scc))
				for i, c := range scc {
					names[i] = c.String()
					inCycle[c] = true
				}
				pos := lo.cycleAnchor(scc, declared)
				lo.pass.Reportf(pos, Error,
					"lock classes form a cycle (%s): two goroutines taking these mutexes in different orders deadlock; break the cycle or fix the \"locks after\" hierarchy",
					strings.Join(names, " -> ")+" -> "+names[0])
			}
		}
	}
	for _, n := range nodes {
		if _, seen := index[n]; !seen {
			strongconnect(n)
		}
	}
	return inCycle
}

// cycleAnchor picks a stable reporting position for a cycle: the
// earliest observed edge between its members, else a declaration.
func (lo *lockOrderPkg) cycleAnchor(scc []lockClass, declared map[lockEdge]token.Pos) token.Pos {
	member := map[lockClass]bool{}
	for _, c := range scc {
		member[c] = true
	}
	best := token.NoPos
	for e, pos := range lo.observed {
		if member[e.from] && member[e.to] && (best == token.NoPos || pos < best) {
			best = pos
		}
	}
	if best != token.NoPos {
		return best
	}
	for e, pos := range declared {
		if member[e.from] && member[e.to] && (best == token.NoPos || pos < best) {
			best = pos
		}
	}
	if best != token.NoPos {
		return best
	}
	return lo.classes[scc[0]].pos
}

// calleeFunc resolves a call's static callee, if it is a declared
// function or method.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch f := call.Fun.(type) {
	case *ast.Ident:
		fn, _ := info.Uses[f].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[f.Sel].(*types.Func)
		return fn
	}
	return nil
}
