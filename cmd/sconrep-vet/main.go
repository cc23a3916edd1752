// Command sconrep-vet runs sconrep's custom static-analysis suite
// (tableset, lockcheck, determinism, wirecompat, lockorder — see
// internal/analysis) over the module:
//
//	sconrep-vet [-run names] [-strict] [-update-schema] [packages]
//
// Packages default to ./... and are resolved with `go list`, so the
// command must run from the module root (`make lint` does). Errors
// (consistency holes: a wire layout that differs from the locked one,
// lock cycles, staleness bugs) always fail the run; Warnings (hygiene:
// undeclared lock orders, unexported wire fields) fail only under
// -strict, which is how `make lint` and CI run.
//
// -update-schema regenerates internal/wire/schema.lock from the
// current tree instead of analyzing, making intentional protocol
// evolution a reviewed diff. It refuses when a layout changed but the
// owning package's codecVersion did not.
//
// The suite is built on a stdlib-only mirror of
// golang.org/x/tools/go/analysis; if x/tools is ever vendored, the
// analyzers port to a unitchecker-based vettool unchanged and this
// driver becomes `go vet -vettool=sconrep-vet ./...`.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"

	"sconrep/internal/analysis"
)

func main() {
	run := flag.String("run", "", "comma-separated analyzer names to run (default: all)")
	strict := flag.Bool("strict", false, "fail on warnings too, not just errors (CI mode)")
	updateSchema := flag.Bool("update-schema", false,
		"regenerate "+analysis.WireSchemaLockFile+" from the tree and exit")
	detPkgs := flag.String("determinism.pkgs", "",
		"comma-separated extra package paths holding seeded (replay-critical) code")
	flag.Parse()

	if *detPkgs != "" {
		analysis.DeterminismSeeded = append(analysis.DeterminismSeeded, strings.Split(*detPkgs, ",")...)
	}
	analyzers, err := selectAnalyzers(*run)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sconrep-vet:", err)
		os.Exit(2)
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := goList(patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sconrep-vet:", err)
		os.Exit(2)
	}

	loader := analysis.NewLoader()
	if *updateSchema {
		if err := writeSchemaLock(loader, pkgs); err != nil {
			fmt.Fprintln(os.Stderr, "sconrep-vet:", err)
			os.Exit(2)
		}
		return
	}

	errors, warnings := 0, 0
	seen := map[string]bool{} // structs shared across packages would double-report
	for _, p := range pkgs {
		files := make([]string, 0, len(p.GoFiles))
		for _, f := range p.GoFiles {
			files = append(files, filepath.Join(p.Dir, f))
		}
		if len(files) == 0 {
			continue
		}
		pkg, err := loader.Load(p.ImportPath, files)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sconrep-vet:", err)
			os.Exit(2)
		}
		diags, err := analysis.Run(pkg, loader.Fset, analyzers)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sconrep-vet:", err)
			os.Exit(2)
		}
		for _, d := range diags {
			pos := loader.Fset.Position(d.Pos)
			rel := pos.Filename
			if wd, err := os.Getwd(); err == nil {
				if r, err := filepath.Rel(wd, pos.Filename); err == nil {
					rel = r
				}
			}
			line := fmt.Sprintf("%s:%d:%d: %s: %s", rel, pos.Line, pos.Column, d.Severity, d.Message)
			if seen[line] {
				continue
			}
			seen[line] = true
			if d.Severity == analysis.Error {
				errors++
			} else {
				warnings++
			}
			fmt.Println(line)
		}
	}
	if errors > 0 || warnings > 0 {
		fmt.Fprintf(os.Stderr, "sconrep-vet: %d error(s), %d warning(s)\n", errors, warnings)
	}
	if errors > 0 || (*strict && warnings > 0) {
		os.Exit(1)
	}
}

// writeSchemaLock collects the codec-reachable schema from every listed
// package, checks it against the lock it replaces (a changed layout
// needs a bumped codecVersion), merges, and rewrites the lockfile.
func writeSchemaLock(loader *analysis.Loader, pkgs []listPkg) error {
	merged := analysis.NewSchema()
	var perPkg []*analysis.Schema
	for _, p := range pkgs {
		files := make([]string, 0, len(p.GoFiles))
		for _, f := range p.GoFiles {
			files = append(files, filepath.Join(p.Dir, f))
		}
		if len(files) == 0 {
			continue
		}
		pkg, err := loader.Load(p.ImportPath, files)
		if err != nil {
			return err
		}
		schema, err := analysis.CollectSchema(pkg, loader.Fset)
		if err != nil {
			return err
		}
		if err := merged.Merge(schema); err != nil {
			return err
		}
		perPkg = append(perPkg, schema)
	}
	if len(merged.Structs) == 0 {
		return fmt.Errorf("no codec-reachable wire structs found in the listed packages; refusing to write an empty %s", analysis.WireSchemaLockFile)
	}
	if data, err := os.ReadFile(analysis.WireSchemaLockFile); err == nil {
		old, err := analysis.ParseSchemaLock(data)
		if err != nil {
			return fmt.Errorf("%s: %v", analysis.WireSchemaLockFile, err)
		}
		if err := analysis.CheckBump(old, perPkg); err != nil {
			return err
		}
	}
	if err := os.WriteFile(analysis.WireSchemaLockFile, merged.Format(), 0o644); err != nil {
		return err
	}
	var names []string
	for n := range merged.Structs {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("sconrep-vet: wrote %s (%d structs)\n", analysis.WireSchemaLockFile, len(names))
	return nil
}

func selectAnalyzers(names string) ([]*analysis.Analyzer, error) {
	all := analysis.Analyzers()
	if names == "" {
		return all, nil
	}
	byName := map[string]*analysis.Analyzer{}
	var known []string
	for _, a := range all {
		byName[a.Name] = a
		known = append(known, a.Name)
	}
	var out []*analysis.Analyzer
	for _, n := range strings.Split(names, ",") {
		a, ok := byName[strings.TrimSpace(n)]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q (have %s)", n, strings.Join(known, ", "))
		}
		out = append(out, a)
	}
	return out, nil
}

// listPkg is the slice of `go list -json` output the driver needs.
type listPkg struct {
	ImportPath string
	Dir        string
	GoFiles    []string
}

// goList resolves package patterns to source file lists, exactly as
// the build sees them (testdata and _test.go files excluded).
func goList(patterns []string) ([]listPkg, error) {
	args := append([]string{"list", "-json=ImportPath,Dir,GoFiles"}, patterns...)
	cmd := exec.Command("go", args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v: %s", err, stderr.String())
	}
	var pkgs []listPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decoding go list output: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}
