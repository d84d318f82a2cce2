package framework

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// A Package is one loaded, parsed, and type-checked package ready for
// analysis.
type Package struct {
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// Diagnostics holds the findings of a Run, sorted by position.
	Diagnostics []Diagnostic
	// factsOnly marks a dependency loaded solely so analyzers can
	// compute its exported facts: it was not named by the patterns, so
	// its diagnostics are suppressed.
	factsOnly bool
}

// listedPkg is the subset of `go list -json` output the loader needs.
type listedPkg struct {
	ImportPath string
	Name       string
	Dir        string
	GoFiles    []string
	CgoFiles   []string
	ImportMap  map[string]string
	Export     string
	ForTest    string
	DepOnly    bool
	Standard   bool
	Error      *struct{ Err string }
}

// loadPackages loads the packages matching the patterns (relative to
// dir), test files included, type-checking them from source. Imports —
// including the standard library — are resolved through compiler
// export data produced by `go list -export`, so no network access and
// no third-party loader is needed.
//
// With -test the go command also lists each matched package p as
// "p [p.test]" (p's files plus its in-package _test.go files), its
// external test package "p_test [p.test]", the dependencies it
// recompiles against that variant ("q [p.test]") and the generated
// test main "p.test". Every source package is loaded once: "p [p.test]"
// in place of p, at p's place in the list; the test main, which has no
// source of its own, not at all. Each package's imports resolve
// through its ImportMap, so an external test sees the test variants it
// was compiled against.
//
// Non-standard-library dependencies of the matched packages (in
// practice: this module's own packages pulled in by a narrow pattern)
// are also loaded from source, marked facts-only, so fact-producing
// analyzers see them even when only their importers were named.
// `go list -deps` emits packages in dependency order — every package
// after all of its imports — and that order is preserved, which is
// what makes a single shared fact store sufficient for cross-package
// propagation. A test variant placed at p's position may precede its
// test-only imports; no analyzer reads facts in test files.
func loadPackages(dir string, patterns ...string) ([]*Package, error) {
	args := append([]string{"list", "-e", "-export", "-json", "-deps", "-test"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("framework: go list failed: %v\n%s", err, stderr.String())
	}

	exports := map[string]string{}
	withTests := map[string]*listedPkg{} // p -> "p [p.test]"
	var listed []*listedPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		p := new(listedPkg)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("framework: decoding go list output: %v", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("framework: package %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if p.ForTest != "" && p.ImportPath == p.ForTest+" ["+p.ForTest+".test]" {
			withTests[p.ForTest] = p
		}
		listed = append(listed, p)
	}

	var pkgs []*Package
	loaded := map[string]bool{}
	for _, t := range listed {
		src, _, _ := strings.Cut(t.ImportPath, " [")
		if loaded[src] || t.Name == "main" && strings.HasSuffix(src, ".test") {
			continue
		}
		loaded[src] = true
		if v := withTests[src]; v != nil {
			t = v
		}
		if t.DepOnly && (t.Standard || len(t.GoFiles) == 0) {
			continue
		}
		if len(t.CgoFiles) > 0 {
			if t.DepOnly {
				continue // facts from a cgo dependency are simply lost
			}
			return nil, fmt.Errorf("framework: package %s uses cgo (unsupported)", t.ImportPath)
		}
		pkg, err := typeCheck(t, exports)
		if err != nil {
			return nil, err
		}
		pkg.factsOnly = t.DepOnly
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

func typeCheck(t *listedPkg, exports map[string]string) (*Package, error) {
	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range t.GoFiles {
		f, err := parser.ParseFile(fset, t.Dir+string(os.PathSeparator)+name, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Instances:  make(map[*ast.Ident]types.Instance),
		Scopes:     make(map[ast.Node]*types.Scope),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	tc := &types.Config{
		Importer: importerFunc(func(path string) (*types.Package, error) {
			if p, ok := t.ImportMap[path]; ok {
				path = p
			}
			return imp.Import(path)
		}),
		Sizes: types.SizesFor("gc", runtime.GOARCH),
	}
	typesPkg, err := tc.Check(t.ImportPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("framework: type-checking %s: %v", t.ImportPath, err)
	}
	return &Package{
		Path:  t.ImportPath,
		Fset:  fset,
		Files: files,
		Types: typesPkg,
		Info:  info,
	}, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
