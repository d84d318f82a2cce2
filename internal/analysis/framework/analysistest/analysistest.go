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
	"go/token"
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
// All corpora load in one call and share one fact store, with packages
// analyzed in dependency order — so a multi-package corpus (a root
// package importing a helper package) exercises cross-package fact
// propagation exactly as the real drivers do. Fact-only dependencies
// pulled in implicitly are analyzed too, but only the named packages'
// diagnostics are checked against want comments.
func Run(t *testing.T, a *framework.Analyzer, corpora ...string) {
	t.Helper()
	patterns := make([]string, len(corpora))
	for i, c := range corpora {
		patterns[i] = "./testdata/src/" + c
	}
	pkgs, err := framework.LoadPackages(".", patterns...)
	if err != nil {
		t.Fatalf("loading corpora %q: %v", corpora, err)
	}
	facts := framework.NewFactStore()
	for _, pkg := range pkgs {
		checkPackage(t, a, pkg, facts)
	}
}

type expectation struct {
	rx      *regexp.Regexp
	matched bool
}

func checkPackage(t *testing.T, a *framework.Analyzer, pkg *framework.Package, facts *framework.FactStore) {
	t.Helper()
	pass := framework.Pass{
		Fset:      pkg.Fset,
		Files:     pkg.Files,
		Pkg:       pkg.Types,
		TypesInfo: pkg.Info,
	}
	diags, err := framework.RunAnalyzers(pass, []*framework.Analyzer{a}, facts)
	if err != nil {
		t.Fatalf("%s: %v", pkg.Path, err)
	}
	if pkg.FactsOnly {
		// Analyzed for its exported facts only; its diagnostics belong
		// to no want corpus.
		return
	}

	wants := map[string][]*expectation{} // "file:line" -> expectations
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				collectWants(t, pkg.Fset, c, wants)
			}
		}
	}

	for _, d := range diags {
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

func consume(exps []*expectation, msg string) bool {
	for _, e := range exps {
		if !e.matched && e.rx.MatchString(msg) {
			e.matched = true
			return true
		}
	}
	return false
}

// collectWants parses one comment for a want directive. The directive
// applies to the comment's own line.
func collectWants(t *testing.T, fset *token.FileSet, c *ast.Comment, wants map[string][]*expectation) {
	t.Helper()
	text, ok := strings.CutPrefix(c.Text, "/*")
	if ok {
		text = strings.TrimSuffix(text, "*/")
	} else {
		text = strings.TrimPrefix(c.Text, "//")
	}
	text = strings.TrimSpace(text)
	if !strings.HasPrefix(text, "want ") {
		return
	}
	rest := strings.TrimSpace(strings.TrimPrefix(text, "want"))
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
