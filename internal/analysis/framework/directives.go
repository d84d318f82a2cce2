package framework

import (
	"go/ast"
	"go/token"
	"strings"
)

// Directive comments carry machine-readable annotations from the code
// to the analyzers, in the spirit of //go:build and //nolint but with
// a vocabulary specific to this router:
//
//	//oc:hotpath    — the function is on the routing hot path; the
//	                  hotalloc analyzer holds it to allocation
//	                  discipline.
//	//oc:clock-ok   — the wall-clock read on this line (or anywhere in
//	                  the annotated function) is intentional: an
//	                  injectable-clock default, ops metadata, or
//	                  wall-clock budget semantics.
//
// A directive is written as a // comment whose text starts with "oc:"
// immediately followed by the directive name; anything after the name
// is a free-form reason, which good style requires:
//
//	//oc:clock-ok deadline budgets are wall-clock by contract
//
// Function-level directives go in the function's doc comment and apply
// to the whole function. Line-level directives go at the end of the
// offending line and apply to that line only.
const DirectivePrefix = "oc:"

// Directives indexes every //oc: directive of a package's files by
// line and by function, for the two lookup shapes analyzers need.
type Directives struct {
	fset *token.FileSet
	// lines maps file name -> line -> directive names on that line.
	lines map[string]map[int]map[string]bool
	// funcs maps a function declaration to its doc-comment directives.
	funcs map[*ast.FuncDecl]map[string]bool
	// unknown records directives outside the known vocabulary, for the
	// vocabulary check.
	unknown []UnknownDirective
}

// UnknownDirective is a directive comment whose name is not part of
// the known vocabulary — almost always a typo that would otherwise
// silently fail to suppress or mark anything.
type UnknownDirective struct {
	Pos  token.Pos
	Name string
}

// KnownDirectives is the directive vocabulary. Analyzers consult
// directives by these names; CollectDirectives records anything else
// as unknown.
var KnownDirectives = []string{"hotpath", "clock-ok"}

// CollectDirectives scans the files for //oc: directives.
func CollectDirectives(fset *token.FileSet, files []*ast.File) *Directives {
	d := &Directives{
		fset:  fset,
		lines: map[string]map[int]map[string]bool{},
		funcs: map[*ast.FuncDecl]map[string]bool{},
	}
	known := map[string]bool{}
	for _, n := range KnownDirectives {
		known[n] = true
	}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				name, ok := parseDirective(c.Text)
				if !ok {
					continue
				}
				if !known[name] {
					d.unknown = append(d.unknown, UnknownDirective{Pos: c.Pos(), Name: name})
					continue
				}
				posn := fset.Position(c.Pos())
				byLine := d.lines[posn.Filename]
				if byLine == nil {
					byLine = map[int]map[string]bool{}
					d.lines[posn.Filename] = byLine
				}
				if byLine[posn.Line] == nil {
					byLine[posn.Line] = map[string]bool{}
				}
				byLine[posn.Line][name] = true
			}
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Doc == nil {
				continue
			}
			for _, c := range fn.Doc.List {
				name, ok := parseDirective(c.Text)
				if !ok || !known[name] {
					continue
				}
				if d.funcs[fn] == nil {
					d.funcs[fn] = map[string]bool{}
				}
				d.funcs[fn][name] = true
			}
		}
	}
	return d
}

// parseDirective extracts the directive name from a comment's text, or
// reports ok=false for ordinary comments. Only // comments qualify,
// and — like //go: directives — no space may separate // from oc:.
func parseDirective(text string) (string, bool) {
	rest, ok := strings.CutPrefix(text, "//"+DirectivePrefix)
	if !ok {
		return "", false
	}
	name, _, _ := strings.Cut(rest, " ")
	name = strings.TrimSpace(name)
	if name == "" {
		return "", false
	}
	return name, true
}

// At reports whether the line containing pos carries the named
// directive.
func (d *Directives) At(pos token.Pos, name string) bool {
	posn := d.fset.Position(pos)
	return d.lines[posn.Filename][posn.Line][name]
}

// Func reports whether fn's doc comment carries the named directive.
func (d *Directives) Func(fn *ast.FuncDecl, name string) bool {
	if fn == nil {
		return false
	}
	return d.funcs[fn][name]
}

// FuncOrAt reports whether either the enclosing function or the line
// at pos carries the named directive — the usual suppression lookup.
func (d *Directives) FuncOrAt(fn *ast.FuncDecl, pos token.Pos, name string) bool {
	return d.Func(fn, name) || d.At(pos, name)
}

// Unknown returns the directives outside the known vocabulary, in
// source order.
func (d *Directives) Unknown() []UnknownDirective { return d.unknown }
