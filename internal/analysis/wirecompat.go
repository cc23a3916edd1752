package analysis

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// WireSchemaLockFile is the committed canonical wire schema, relative
// to the working directory (the module root — sconrep-vet runs there).
// The fixture tests point it at per-fixture lock files.
var WireSchemaLockFile = "internal/wire/schema.lock"

// WireCodecTag marks, in a function's doc comment, a codec entry point:
// a function whose parameters are what travels. frameConn.send/recv in
// internal/wire carry it, and wal's record encoder and parser.
const WireCodecTag = "wirecompat:codec"

// WireVersionConst is the package-level constant a package with codec
// entry points must declare: the version byte it writes ahead of its
// layouts (the hello's protocol version in wire, the record payload's
// first byte in wal).
const WireVersionConst = "codecVersion"

// WireCompat locks the module's binary wire and log schema. The frame
// codec is positional and hand-written: a struct's fields travel in
// declaration order with no names, no skipping and no zero-fill, so a
// peer (or a log) written against another layout cannot be read at
// all, and the one compatibility mechanism is the version byte each
// connection's hello — and each log record — starts with. The analyzer
// keeps the two honest with each other. It derives the canonical
// schema (struct, field order, field name, type) of every struct that
// reaches a codec entry point — the hellos, request/response
// envelopes, refresh batches and WAL records, plus everything their
// fields reach (writesets, span contexts, SQL results, commit results)
// — and diffs it against the committed lockfile
// (internal/wire/schema.lock), which also records each package's
// codecVersion:
//
//   - any difference in a locked struct — a field added, removed,
//     renamed, reordered or retyped, or a struct newly reachable — is
//     an Error until the lock is regenerated;
//   - a codecVersion that differs from the locked one is an Error
//     until the lock is regenerated;
//   - regenerating (`sconrep-vet -update-schema`) refuses to write a
//     lock whose layouts changed under an unchanged codecVersion, so
//     "changed the layout, kept the version byte" cannot be committed;
//   - chan and func fields cannot travel, unexported fields are
//     invisible to the lock, and non-empty interface fields have no
//     layout: flagged regardless of the lock.
//
// The lock tracks struct shapes, not the append/parse functions that
// implement them; those are held to the shapes by the codec round-trip
// and fuzz tests in internal/wire.
//
// Root discovery follows the data, not a hand-kept list. Functions
// tagged `wirecompat:codec` seed it: a parameter of concrete struct
// type is a root outright (wal's record codec), and an interface
// parameter is a "sink" — concrete struct arguments at its call sites
// are roots, and a package-local fixpoint propagates sinks through
// wrappers (connPool.call's req/resp reach frameConn.send/recv), so the
// envelopes passed through them are found too. Arguments whose static
// type never resolves to a concrete struct (a hello returned as an
// interface) are skipped — every such value in this codebase also
// crosses a typed call site.
var WireCompat = &Analyzer{
	Name: "wirecompat",
	Doc:  "structs that reach the frame codec must match the committed wire schema lock",
	Run:  runWireCompat,
}

// Schema is the canonical shape of every codec-reachable struct, keyed
// by qualified name ("sconrep/internal/wal.Record"), plus the
// codecVersion of each package that has codec entry points.
type Schema struct {
	Versions map[string]int64
	Structs  map[string]*SchemaStruct
}

// NewSchema returns an empty schema.
func NewSchema() *Schema {
	return &Schema{Versions: map[string]int64{}, Structs: map[string]*SchemaStruct{}}
}

// SchemaStruct is one struct's locked shape; Fields are in declaration
// order, which is the order they travel in.
type SchemaStruct struct {
	Name   string
	Fields []SchemaField
}

// SchemaField is one exported field's locked name and type string.
type SchemaField struct {
	Name string
	Type string
}

func (st *SchemaStruct) equal(other *SchemaStruct) bool {
	return other != nil && slices.Equal(st.Fields, other.Fields)
}

// sortedNames returns the schema's struct names in canonical order.
func (s *Schema) sortedNames() []string {
	names := make([]string, 0, len(s.Structs))
	for n := range s.Structs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Merge folds other into s, verifying that structs reachable from
// several packages (e.g. writeset.WriteSet from both wire and wal)
// derived identical schemas.
func (s *Schema) Merge(other *Schema) error {
	for pkg, v := range other.Versions {
		s.Versions[pkg] = v
	}
	for name, st := range other.Structs {
		if prev, ok := s.Structs[name]; ok && !prev.equal(st) {
			return fmt.Errorf("wire schema for %s differs between packages", name)
		}
		s.Structs[name] = st
	}
	return nil
}

// Format renders the schema in the committed lockfile format.
func (s *Schema) Format() []byte {
	var b strings.Builder
	b.WriteString("# sconrep wire schema lock — the canonical layout of every struct that\n")
	b.WriteString("# reaches the binary frame codec or the WAL record codec, and the codec\n")
	b.WriteString("# version each package wrote them under. The codec is positional: any\n")
	b.WriteString("# change below needs a codecVersion bump in the package that owns it.\n")
	b.WriteString("# Regenerate after intentional protocol evolution with:\n")
	b.WriteString("#   go run ./cmd/sconrep-vet -update-schema ./...\n")
	b.WriteString("# Reviewed by the wirecompat analyzer; see DESIGN.md \"Protocol-safety analysis\".\n")
	pkgs := make([]string, 0, len(s.Versions))
	for p := range s.Versions {
		pkgs = append(pkgs, p)
	}
	sort.Strings(pkgs)
	for _, p := range pkgs {
		fmt.Fprintf(&b, "version %s %d\n", p, s.Versions[p])
	}
	for _, name := range s.sortedNames() {
		st := s.Structs[name]
		fmt.Fprintf(&b, "struct %s\n", name)
		for i, f := range st.Fields {
			fmt.Fprintf(&b, "  %d %s %s\n", i, f.Name, f.Type)
		}
	}
	return []byte(b.String())
}

// ParseSchemaLock parses a lockfile produced by Format.
func ParseSchemaLock(data []byte) (*Schema, error) {
	s := NewSchema()
	var cur *SchemaStruct
	for ln, line := range strings.Split(string(data), "\n") {
		line = strings.TrimRight(line, " \t\r")
		trimmed := strings.TrimSpace(line)
		if trimmed == "" || strings.HasPrefix(trimmed, "#") {
			continue
		}
		if rest, ok := strings.CutPrefix(line, "version "); ok {
			pkg, num, _ := strings.Cut(rest, " ")
			v, err := strconv.ParseInt(num, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("schema lock line %d: want \"version <package> <n>\", got %q", ln+1, trimmed)
			}
			s.Versions[pkg] = v
			continue
		}
		if name, ok := strings.CutPrefix(line, "struct "); ok {
			cur = &SchemaStruct{Name: name}
			s.Structs[name] = cur
			continue
		}
		if cur == nil {
			return nil, fmt.Errorf("schema lock line %d: field entry before any struct", ln+1)
		}
		parts := strings.SplitN(trimmed, " ", 3)
		if len(parts) != 3 {
			return nil, fmt.Errorf("schema lock line %d: want \"<index> <name> <type>\", got %q", ln+1, trimmed)
		}
		cur.Fields = append(cur.Fields, SchemaField{Name: parts[1], Type: parts[2]})
	}
	return s, nil
}

// CheckBump is the regeneration rule: given the committed lock (nil if
// there is none) and the freshly derived per-package schemas, it
// refuses a regeneration that changes a layout a package reaches while
// that package's codecVersion is the one already locked, or that drops
// a struct while no version changed at all. Peers and logs tell layouts
// apart by that byte alone.
func CheckBump(old *Schema, pkgs []*Schema) error {
	if old == nil {
		return nil
	}
	bumped := false
	reachable := map[string]bool{}
	for _, cur := range pkgs {
		for name := range cur.Structs {
			reachable[name] = true
		}
		for pkg, v := range cur.Versions {
			if ov, locked := old.Versions[pkg]; !locked || ov != v {
				bumped = true
				continue
			}
			for _, name := range cur.sortedNames() {
				if !cur.Structs[name].equal(old.Structs[name]) {
					return fmt.Errorf("layout of %s changed but %s still declares %s = %d, the version already locked: bump it, then regenerate",
						name, pkg, WireVersionConst, v)
				}
			}
		}
	}
	if !bumped {
		for _, name := range old.sortedNames() {
			if !reachable[name] {
				return fmt.Errorf("%s no longer reaches the codec but no package's %s changed: bump the owner's, then regenerate", name, WireVersionConst)
			}
		}
	}
	return nil
}

// CollectSchema derives the package's wire schema without diffing it —
// the `-update-schema` path. Field-shape diagnostics (chan/func,
// non-empty interface, unexported fields) are discarded here; the next
// plain run reports them.
func CollectSchema(pkg *Package, fset *token.FileSet) (*Schema, error) {
	w := newSchemaWalker(pkg.Files, pkg.Pkg, pkg.Info, func(Diagnostic) {})
	return w.collect(), nil
}

func runWireCompat(pass *Pass) error {
	w := newSchemaWalker(pass.Files, pass.Pkg, pass.Info, pass.Report)
	schema := w.collect()
	if len(schema.Structs) == 0 {
		return nil // no codec entry points in this package
	}
	data, err := os.ReadFile(WireSchemaLockFile)
	if err != nil {
		pass.Reportf(w.firstRootPos, Error,
			"wire schema lock %s not readable (%v): run `sconrep-vet -update-schema` to create it",
			WireSchemaLockFile, err)
		return nil
	}
	lock, err := ParseSchemaLock(data)
	if err != nil {
		pass.Reportf(w.firstRootPos, Error, "wire schema lock %s: %v", WireSchemaLockFile, err)
		return nil
	}
	path := pass.Pkg.Path()
	switch v, declared := schema.Versions[path]; {
	case !declared:
		pass.Reportf(w.firstRootPos, Error,
			"package has %s entry points but declares no integer constant %s: the version byte is the codec's only compatibility mechanism",
			WireCodecTag, WireVersionConst)
	case lock.Versions[path] != v:
		pass.Reportf(w.versionPos, Error,
			"%s is %d but %s locks version %d for %s: run `sconrep-vet -update-schema`",
			WireVersionConst, v, WireSchemaLockFile, lock.Versions[path], path)
	}
	diffSchemas(pass, w, schema, lock)
	return nil
}

// diffSchemas reports every divergence between the derived schema and
// the lock, for the structs reachable from this package. The codec is
// positional, so every divergence is an Error.
func diffSchemas(pass *Pass, w *schemaWalker, schema, lock *Schema) {
	const fix = "bump " + WireVersionConst + " and run `sconrep-vet -update-schema`, or revert"
	for _, name := range schema.sortedNames() {
		st := schema.Structs[name]
		anchor := w.anchorFor(name)
		locked, ok := lock.Structs[name]
		if !ok {
			pass.Reportf(anchor, Error,
				"wire struct %s reaches the codec but is not locked in %s: %s", name, WireSchemaLockFile, fix)
			continue
		}
		code := map[string]SchemaField{}
		for _, f := range st.Fields {
			code[f.Name] = f
		}
		lockedSet := map[string]bool{}
		for _, lf := range locked.Fields {
			lockedSet[lf.Name] = true
			cf, present := code[lf.Name]
			if !present {
				pass.Reportf(anchor, Error,
					"wire field %s.%s (%s) was removed or renamed: every later field of the layout %s locks has moved; %s",
					name, lf.Name, lf.Type, WireSchemaLockFile, fix)
				continue
			}
			if cf.Type != lf.Type {
				pass.Reportf(w.fieldPos(name, lf.Name, anchor), Error,
					"wire field %s.%s changed type %s -> %s: peers on the locked layout mis-decode it; %s",
					name, lf.Name, lf.Type, cf.Type, fix)
			}
		}
		for _, cf := range st.Fields {
			if !lockedSet[cf.Name] {
				pass.Reportf(w.fieldPos(name, cf.Name, anchor), Error,
					"new wire field %s.%s (%s) is not locked in %s: a positional codec has no way to skip it; %s",
					name, cf.Name, cf.Type, WireSchemaLockFile, fix)
			}
		}
		if orderChanged(st.Fields, locked.Fields) {
			pass.Reportf(anchor, Error,
				"wire struct %s field order differs from %s: fields travel in declaration order; %s",
				name, WireSchemaLockFile, fix)
		}
	}
}

// orderChanged reports whether the fields common to both schemas
// appear in a different relative order.
func orderChanged(code, locked []SchemaField) bool {
	in := func(fs []SchemaField, name string) bool {
		for _, f := range fs {
			if f.Name == name {
				return true
			}
		}
		return false
	}
	var a, b []string
	for _, f := range code {
		if in(locked, f.Name) {
			a = append(a, f.Name)
		}
	}
	for _, f := range locked {
		if in(code, f.Name) {
			b = append(b, f.Name)
		}
	}
	return !slices.Equal(a, b)
}

// schemaWalker discovers codec roots and walks the reachable type
// closure into a Schema.
type schemaWalker struct {
	files  []*ast.File
	pkg    *types.Package
	info   *types.Info
	report func(Diagnostic)

	// roots maps discovered root structs to the call site that roots
	// them (the diagnostic anchor for foreign types).
	roots        map[*types.Named]token.Pos
	firstRootPos token.Pos
	versionPos   token.Pos // the codecVersion declaration, if any

	schema  *Schema
	anchors map[string]token.Pos // struct name -> pos (decl if local, else root site)
	fields  map[string]token.Pos // "struct.field" -> field decl pos (local structs)
	visited map[*types.Named]bool
	queue   []*types.Named
}

func newSchemaWalker(files []*ast.File, pkg *types.Package, info *types.Info, report func(Diagnostic)) *schemaWalker {
	return &schemaWalker{
		files:   files,
		pkg:     pkg,
		info:    info,
		report:  report,
		roots:   map[*types.Named]token.Pos{},
		schema:  NewSchema(),
		anchors: map[string]token.Pos{},
		fields:  map[string]token.Pos{},
		visited: map[*types.Named]bool{},
	}
}

func (w *schemaWalker) collect() *Schema {
	w.findRoots()
	for n, pos := range w.roots {
		if w.firstRootPos == token.NoPos || pos < w.firstRootPos {
			w.firstRootPos = pos
		}
		w.enqueue(n, pos)
	}
	for len(w.queue) > 0 {
		n := w.queue[0]
		w.queue = w.queue[1:]
		w.walkStruct(n)
	}
	if c, ok := w.pkg.Scope().Lookup(WireVersionConst).(*types.Const); ok && len(w.roots) > 0 {
		if v, exact := constant.Int64Val(constant.ToInt(c.Val())); exact {
			w.schema.Versions[w.pkg.Path()] = v
			w.versionPos = c.Pos()
		}
	}
	return w.schema
}

func (w *schemaWalker) anchorFor(name string) token.Pos { return w.anchors[name] }

func (w *schemaWalker) fieldPos(structName, field string, fallback token.Pos) token.Pos {
	if p, ok := w.fields[structName+"."+field]; ok {
		return p
	}
	return fallback
}

// findRoots locates every concrete struct type that reaches a codec
// entry point: struct-typed parameters of tagged functions, arguments
// to their interface-typed ("sink") parameters, and arguments to sink
// parameters of wrappers, computed by a package-local fixpoint.
func (w *schemaWalker) findRoots() {
	// Map from function object to the set of parameter indices that
	// flow into the codec (receivers excluded from the index space).
	sinks := map[*types.Func]map[int]bool{}
	decls := map[*types.Func]*ast.FuncDecl{}
	for _, file := range w.files {
		for _, d := range file.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Body != nil {
				if obj, ok := w.info.Defs[fn.Name].(*types.Func); ok {
					decls[obj] = fn
				}
			}
		}
	}
	paramIndex := func(fn *ast.FuncDecl, id *ast.Ident) int {
		obj := w.info.Uses[id]
		if obj == nil {
			return -1
		}
		i := 0
		for _, f := range fn.Type.Params.List {
			for _, n := range f.Names {
				if w.info.Defs[n] == obj {
					return i
				}
				i++
			}
		}
		return -1
	}
	// root records a value of type t reaching the codec at pos: a named
	// struct (through pointers) is a root; any other named type is
	// walked for the structs it contains (a named slice of refreshes).
	root := func(t types.Type, pos token.Pos) (isConcrete, changed bool) {
		for {
			p, ok := t.(*types.Pointer)
			if !ok {
				break
			}
			t = p.Elem()
		}
		n, ok := t.(*types.Named)
		if !ok {
			return false, false
		}
		if _, isIface := n.Underlying().(*types.Interface); isIface {
			return false, false
		}
		if _, seen := w.roots[n]; seen {
			return true, false
		}
		w.roots[n] = pos
		return true, true
	}
	markSink := func(obj *types.Func, idx int) bool {
		if sinks[obj] == nil {
			sinks[obj] = map[int]bool{}
		}
		if sinks[obj][idx] {
			return false
		}
		sinks[obj][idx] = true
		return true
	}
	// Seed: the parameters of tagged functions.
	for obj, fn := range decls {
		if fn.Doc == nil || !strings.Contains(fn.Doc.Text(), WireCodecTag) {
			continue
		}
		i := 0
		for _, f := range fn.Type.Params.List {
			for _, name := range f.Names {
				def := w.info.Defs[name]
				if def == nil {
					i++
					continue
				}
				t := def.Type()
				if concrete, _ := root(t, name.Pos()); !concrete {
					if _, isIface := t.Underlying().(*types.Interface); isIface {
						markSink(obj, i)
					}
				}
				i++
			}
		}
	}
	// classify handles one argument that reaches a sink: concrete named
	// types become roots; the caller's own interface parameters become
	// sinks in turn.
	classify := func(fn *ast.FuncDecl, obj *types.Func, arg ast.Expr) (changed bool) {
		if u, ok := arg.(*ast.UnaryExpr); ok && u.Op == token.AND {
			arg = u.X
		}
		tv, ok := w.info.Types[arg]
		if !ok {
			return false
		}
		if concrete, changed := root(tv.Type, arg.Pos()); concrete {
			return changed
		}
		if _, isIface := tv.Type.Underlying().(*types.Interface); isIface {
			if id, ok := arg.(*ast.Ident); ok {
				if idx := paramIndex(fn, id); idx >= 0 {
					return markSink(obj, idx)
				}
			}
		}
		return false
	}
	for changed := true; changed; {
		changed = false
		for obj, fn := range decls {
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				callee := calleeFunc(w.info, call)
				if callee == nil {
					return true
				}
				for idx := range sinks[callee] {
					if idx < len(call.Args) && classify(fn, obj, call.Args[idx]) {
						changed = true
					}
				}
				return true
			})
		}
	}
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

// walkStruct records one struct's fields and enqueues the named
// structs its fields reach. A root that is a named non-struct type
// contributes only what it reaches.
func (w *schemaWalker) walkStruct(n *types.Named) {
	name := qualifiedName(n)
	st, ok := n.Underlying().(*types.Struct)
	if !ok {
		w.typeString(n.Underlying(), w.anchors[name], name)
		return
	}
	anchor := w.anchors[name]
	if n.Obj().Pkg() == w.pkg {
		anchor = n.Obj().Pos()
		w.anchors[name] = anchor
	}
	ss := &SchemaStruct{Name: name}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		fpos := anchor
		if n.Obj().Pkg() == w.pkg {
			fpos = f.Pos()
			w.fields[name+"."+f.Name()] = fpos
		}
		if !f.Exported() {
			w.report(Diagnostic{Pos: fpos, Severity: Warning, Message: fmt.Sprintf(
				"wire struct %s has unexported field %s: the schema lock cannot see it, so a change to it escapes review — export it or move it off the wire struct", name, f.Name())})
			continue
		}
		ts := w.typeString(f.Type(), fpos, name+"."+f.Name())
		ss.Fields = append(ss.Fields, SchemaField{Name: f.Name(), Type: ts})
	}
	w.schema.Structs[name] = ss
}

// enqueue schedules a named struct for walking (once).
func (w *schemaWalker) enqueue(n *types.Named, anchor token.Pos) {
	if w.visited[n] {
		return
	}
	w.visited[n] = true
	name := qualifiedName(n)
	if _, ok := w.anchors[name]; !ok {
		w.anchors[name] = anchor
	}
	w.queue = append(w.queue, n)
}

// typeString renders a field type canonically, flagging shapes that
// cannot travel and enqueueing reachable named structs.
func (w *schemaWalker) typeString(t types.Type, pos token.Pos, path string) string {
	switch t := t.(type) {
	case *types.Basic:
		switch t.Kind() {
		case types.Byte:
			return "uint8"
		case types.Rune:
			return "int32"
		}
		return t.Name()
	case *types.Pointer:
		return "*" + w.typeString(t.Elem(), pos, path)
	case *types.Slice:
		return "[]" + w.typeString(t.Elem(), pos, path)
	case *types.Array:
		return fmt.Sprintf("[%d]%s", t.Len(), w.typeString(t.Elem(), pos, path))
	case *types.Map:
		return "map[" + w.typeString(t.Key(), pos, path) + "]" + w.typeString(t.Elem(), pos, path)
	case *types.Chan:
		w.report(Diagnostic{Pos: pos, Severity: Error, Message: fmt.Sprintf(
			"wire field %s contains a chan: a channel cannot travel in a frame", path)})
		return "chan"
	case *types.Signature:
		w.report(Diagnostic{Pos: pos, Severity: Error, Message: fmt.Sprintf(
			"wire field %s contains a func: a function cannot travel in a frame", path)})
		return "func"
	case *types.Interface:
		if t.Empty() {
			return "any" // row values: the scalars internal/writeset lays out
		}
		w.report(Diagnostic{Pos: pos, Severity: Warning, Message: fmt.Sprintf(
			"wire field %s is a non-empty interface: it has no layout the lock can pin — use a concrete field", path)})
		return "interface"
	case *types.Named:
		name := qualifiedName(t)
		if _, isStruct := t.Underlying().(*types.Struct); isStruct {
			w.enqueue(t, pos)
			return name
		}
		return name + "(" + w.typeString(t.Underlying(), pos, path) + ")"
	case *types.Struct:
		// Anonymous struct: render inline.
		var parts []string
		for i := 0; i < t.NumFields(); i++ {
			f := t.Field(i)
			if !f.Exported() {
				continue
			}
			parts = append(parts, f.Name()+" "+w.typeString(f.Type(), pos, path+"."+f.Name()))
		}
		return "struct{" + strings.Join(parts, "; ") + "}"
	}
	return t.String()
}

func qualifiedName(n *types.Named) string {
	obj := n.Obj()
	if obj.Pkg() == nil {
		return obj.Name()
	}
	return obj.Pkg().Path() + "." + obj.Name()
}
