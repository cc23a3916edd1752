// Package analysis is sconrep's custom static-analysis suite: a small
// stdlib-only framework mirroring golang.org/x/tools/go/analysis (so
// the analyzers port to a real vettool unchanged if x/tools is ever
// vendored), plus four project-specific analyzers that turn the
// paper's conventions into machine-checked invariants:
//
//   - tableset: each workload transaction's declared static table-set
//     (the §III-B workload information the fine-grained mode
//     synchronizes on) must match the tables its body actually
//     touches. Under-declaration is a silent staleness hole — FSC
//     simply won't wait on the missing table; over-declaration adds
//     needless start delay, eroding the §III-C fine-grained edge.
//   - lockcheck: fields annotated "guarded by <mu>" must only be
//     accessed in functions that acquire the named mutex (or are
//     documented as called with it held).
//   - determinism: the seeded chaos/latency/workload packages must
//     stay replayable from SCONREP_CHAOS_SEED — no wall-clock reads,
//     no global math/rand, no unannotated map iteration — and
//     packages importing math/rand outside the seeded list are
//     flagged as coverage gaps.
//   - lockorder: the inter-mutex acquisition graph, built from
//     "locks after" annotations plus observed acquisitions, must be
//     acyclic, and cross-shard same-class multi-acquires must be
//     provably ascending loops.
//
// The cmd/sconrep-vet driver runs the suite over the module
// (`make lint` and the CI lint job); analysistest-style fixture tests
// live under testdata/src. The binary layouts of the wire frames, the
// WAL records and the checkpoint image are not analyzed here: each is
// pinned by its own golden-bytes test, which compares encodings, not
// struct shapes.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Severity classifies a diagnostic. The driver always fails the run
// on an Error (a correctness hole — an FSC staleness bug, an
// unguarded access, a lock cycle); a Warning (a performance or hygiene
// regression, an undeclared-but-consistent lock order) fails only under
// sconrep-vet -strict, which is how CI runs.
type Severity int

const (
	Error Severity = iota
	Warning
)

func (s Severity) String() string {
	if s == Warning {
		return "warning"
	}
	return "error"
}

// Diagnostic is one finding, positioned inside the analyzed package.
type Diagnostic struct {
	Pos      token.Pos
	Severity Severity
	Message  string
}

// Analyzer is one static check, run once per package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and -run filters.
	Name string
	// Doc is a one-paragraph description.
	Doc string
	// Run performs the check, reporting findings via pass.Report.
	Run func(pass *Pass) error
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	// Fset maps token.Pos to file positions for every file in Files.
	Fset *token.FileSet
	// Files holds the package's parsed sources, with comments. Test
	// files (_test.go) are included only by the fixture loader;
	// the driver analyzes non-test sources like `go build` sees them.
	Files []*ast.File
	// Path is the package's import path ("sconrep/internal/fault");
	// fixture packages use their directory name.
	Path string
	// Pkg and Info expose go/types results. Info always has Types,
	// Defs, Uses, and Selections filled.
	Pkg  *types.Package
	Info *types.Info

	report func(Diagnostic)
}

// Report records a finding.
func (p *Pass) Report(d Diagnostic) { p.report(d) }

// Reportf reports a formatted finding at pos.
func (p *Pass) Reportf(pos token.Pos, sev Severity, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Severity: sev, Message: fmt.Sprintf(format, args...)})
}

// Analyzers returns the full suite in deterministic order.
func Analyzers() []*Analyzer {
	return []*Analyzer{TableSet, LockCheck, Determinism, LockOrder}
}
