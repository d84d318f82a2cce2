// Package framework is a minimal, dependency-free re-implementation of
// the golang.org/x/tools/go/analysis driver model, built only on the
// standard library. The repo's correctness analyzers (internal/analysis)
// are written against it, and cmd/oclint drives them.
//
// The subset implemented here is deliberately small: analyzers are
// functions over a type-checked package plus a cross-package fact
// store (see facts.go) — facts attach typed properties to package-
// level objects and flow to dependent packages, which are always
// analyzed later, in `go list -deps` order. There are no
// analyzer-to-analyzer dependencies. One driver, Run, loads packages
// with their test files (see load.go) and applies the analyzers; it
// backs both cmd/oclint and the `// want`-comment driven corpus tests
// of the analysistest subpackage, so the tests exercise exactly what
// the linter runs.
package framework

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and flags. It must be
	// a valid Go identifier.
	Name string
	// Doc is the help text; the first line is the summary.
	Doc string
	// Run applies the analyzer to a single type-checked package,
	// reporting findings through pass.Report.
	Run func(pass *Pass) error
}

func (a *Analyzer) String() string { return a.Name }

// A Pass provides one analyzer with the parsed and type-checked syntax
// of a single package, a sink for its diagnostics, and the run's
// shared fact store.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	Report    func(Diagnostic)
	facts     *factStore
}

// Reportf reports a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// ExportObjectFact attaches fact to obj for later passes (the same
// package's remaining files, and every dependent package). Later
// exports of the same fact type for the same object overwrite earlier
// ones.
func (p *Pass) ExportObjectFact(obj types.Object, fact Fact) {
	// Encoding errors mean a non-serializable fact type: an analyzer
	// bug, surfaced loudly rather than silently dropping propagation.
	if err := p.facts.export(p.Analyzer.Name, obj, fact); err != nil {
		panic(err)
	}
}

// ImportObjectFact loads the fact previously exported for obj (by this
// analyzer, in this package or any dependency) into fact, reporting
// whether one was found.
func (p *Pass) ImportObjectFact(obj types.Object, fact Fact) bool {
	return p.facts.importFact(p.Analyzer.Name, obj, fact)
}

// A Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Category string // analyzer name, filled in by the driver
}

// Validate rejects nil or duplicate analyzers before a driver runs.
func Validate(analyzers []*Analyzer) error {
	seen := map[string]bool{}
	for _, a := range analyzers {
		if a == nil || a.Name == "" || a.Run == nil {
			return fmt.Errorf("framework: invalid analyzer %+v", a)
		}
		if seen[a.Name] {
			return fmt.Errorf("framework: duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
	}
	return nil
}

// Run loads the packages matching the patterns (relative to dir) and
// applies the analyzers to each, in dependency order over one shared
// fact store, so properties exported while analyzing a dependency are
// visible when its importers are analyzed. It returns the packages the
// patterns named, each with its Diagnostics; dependencies loaded only
// for their facts are analyzed but not returned. Analyzer errors abort
// the run.
func Run(dir string, analyzers []*Analyzer, patterns ...string) ([]*Package, error) {
	pkgs, err := loadPackages(dir, patterns...)
	if err != nil {
		return nil, err
	}
	facts := newFactStore()
	var named []*Package
	for _, pkg := range pkgs {
		var diags []Diagnostic
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				Report: func(d Diagnostic) {
					d.Category = a.Name
					diags = append(diags, d)
				},
				facts: facts,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("framework: %s: %s: %w", pkg.Path, a.Name, err)
			}
		}
		if pkg.factsOnly {
			continue
		}
		sort.SliceStable(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })
		pkg.Diagnostics = diags
		named = append(named, pkg)
	}
	return named, nil
}

// NormalizePkgPath maps the package path variants a build system
// presents for the same source directory onto the plain import path:
// the test-binary form "p [p.test]" and the external test package
// "p_test" both normalize to "p".
func NormalizePkgPath(path string) string {
	if i := strings.Index(path, " ["); i >= 0 {
		path = path[:i]
	}
	return strings.TrimSuffix(path, "_test")
}

// IsTestFile reports whether the file containing pos is a _test.go
// file.
func IsTestFile(fset *token.FileSet, pos token.Pos) bool {
	return strings.HasSuffix(fset.Position(pos).Filename, "_test.go")
}
