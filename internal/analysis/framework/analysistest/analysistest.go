// Package analysistest runs an analyzer over a corpus package under
// testdata/src and checks its diagnostics against `// want` comments,
// mirroring the contract of golang.org/x/tools/go/analysis/analysistest
// on top of the local framework.
//
// A want comment annotates the line it appears on:
//
//	m[k] = v // want `iteration order`
//
// A block comment works too, which lets an expectation share its line
// with a trailing // comment that is itself the subject of a
// diagnostic:
//
//	var _ = 0 /* want `unknown directive` */ //oc:hotpth
//
// The backquoted (or double-quoted) strings are regular expressions;
// every expectation must be matched by a diagnostic on that line and
// every diagnostic must be matched by an expectation.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"overcell/internal/analysis/framework"
)

// Run loads testdata/src/<corpus> for each named corpus (relative to
// the calling test's package directory), applies the analyzer, and
// reports mismatches between diagnostics and want comments as test
// failures.
//
// The corpora load through framework.Run, the driver cmd/oclint uses:
// one call, _test.go files included, one shared fact store, packages
// analyzed in dependency order — so a multi-package corpus (a root
// package importing a helper package) exercises cross-package fact
// propagation exactly as the linter does. Fact-only dependencies
// pulled in implicitly are analyzed too, but only the named packages'
// diagnostics are checked against want comments. A corpus file that
// carries a want comment but was not loaded fails the test: its
// expectations would otherwise pass unchecked.
func Run(t *testing.T, a *framework.Analyzer, corpora ...string) {
	t.Helper()
	patterns := make([]string, len(corpora))
	for i, c := range corpora {
		patterns[i] = "./testdata/src/" + c
	}
	pkgs, err := framework.Run(".", []*framework.Analyzer{a}, patterns...)
	if err != nil {
		t.Fatalf("loading corpora %q: %v", corpora, err)
	}
	loaded := map[string]bool{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			loaded[pkg.Fset.Position(f.Pos()).Filename] = true
		}
		checkPackage(t, pkg)
	}
	for _, p := range patterns {
		checkAllLoaded(t, p, loaded)
	}
}

type expectation struct {
	rx      *regexp.Regexp
	matched bool
}

func checkPackage(t *testing.T, pkg *framework.Package) {
	t.Helper()
	wants := map[string][]*expectation{} // "file:line" -> expectations
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				collectWants(t, pkg.Fset, c, wants)
			}
		}
	}

	for _, d := range pkg.Diagnostics {
		posn := pkg.Fset.Position(d.Pos)
		key := fmt.Sprintf("%s:%d", posn.Filename, posn.Line)
		if !consume(wants[key], d.Message) {
			t.Errorf("%s: unexpected diagnostic: %s", posn, d.Message)
		}
	}
	for key, exps := range wants {
		for _, e := range exps {
			if !e.matched {
				t.Errorf("%s: expected diagnostic matching %q, got none", key, e.rx)
			}
		}
	}
}

// checkAllLoaded fails the test for every Go file in dir that carries
// a want comment but is not among the loaded files.
func checkAllLoaded(t *testing.T, dir string, loaded map[string]bool) {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, name := range names {
		abs, err := filepath.Abs(name)
		if err != nil {
			t.Fatal(err)
		}
		if loaded[abs] {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if hasWant(f) {
			t.Errorf("%s carries want comments but was not loaded: its expectations are never checked", name)
		}
	}
}

func hasWant(f *ast.File) bool {
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if _, ok := wantPatterns(c); ok {
				return true
			}
		}
	}
	return false
}

func consume(exps []*expectation, msg string) bool {
	for _, e := range exps {
		if !e.matched && e.rx.MatchString(msg) {
			e.matched = true
			return true
		}
	}
	return false
}

// wantPatterns returns the pattern list of a want directive, and
// whether the comment is one.
func wantPatterns(c *ast.Comment) (string, bool) {
	text, ok := strings.CutPrefix(c.Text, "/*")
	if ok {
		text = strings.TrimSuffix(text, "*/")
	} else {
		text = strings.TrimPrefix(c.Text, "//")
	}
	rest, ok := strings.CutPrefix(strings.TrimSpace(text), "want ")
	return strings.TrimSpace(rest), ok
}

// collectWants parses one comment for a want directive. The directive
// applies to the comment's own line.
func collectWants(t *testing.T, fset *token.FileSet, c *ast.Comment, wants map[string][]*expectation) {
	t.Helper()
	rest, ok := wantPatterns(c)
	if !ok {
		return
	}
	posn := fset.Position(c.Pos())
	key := fmt.Sprintf("%s:%d", posn.Filename, posn.Line)
	for rest != "" {
		var lit string
		var err error
		switch rest[0] {
		case '`':
			end := strings.Index(rest[1:], "`")
			if end < 0 {
				t.Fatalf("%s: unterminated want pattern: %s", posn, rest)
			}
			lit, rest = rest[1:1+end], strings.TrimSpace(rest[end+2:])
		case '"':
			lit, err = strconv.Unquote(rest)
			if err != nil {
				t.Fatalf("%s: bad want pattern %q: %v", posn, rest, err)
			}
			rest = ""
		default:
			t.Fatalf("%s: want patterns must be backquoted or quoted: %s", posn, rest)
		}
		rx, err := regexp.Compile(lit)
		if err != nil {
			t.Fatalf("%s: bad want regexp %q: %v", posn, lit, err)
		}
		wants[key] = append(wants[key], &expectation{rx: rx})
	}
}
