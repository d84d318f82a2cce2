package framework

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

// parse builds the fset+file pair CollectDirectives wants from one
// source string.
func parse(t *testing.T, src string) (*token.FileSet, *Directives) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "d.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return fset, CollectDirectives(fset, []*ast.File{f})
}

// TestUnknownDirectives pins the vocabulary check: a misspelled
// directive must surface through Unknown() rather than silently
// failing to suppress anything. The nondeterm corpus covers the
// analyzer-level diagnostic.
func TestUnknownDirectives(t *testing.T) {
	_, d := parse(t, `package p

//oc:hotpth typo of hotpath
func a() {}

//oc:clock-okay also wrong
func b() {}

//oc:hotpath the real one
func c() {}
`)
	unk := d.Unknown()
	if len(unk) != 2 {
		t.Fatalf("Unknown() returned %d directives, want 2: %+v", len(unk), unk)
	}
	if unk[0].Name != "hotpth" || unk[1].Name != "clock-okay" {
		t.Errorf("Unknown() names = %q, %q; want hotpth, clock-okay", unk[0].Name, unk[1].Name)
	}
}

// TestDirectiveLookups covers the three lookup shapes: line-level At,
// function-level Func, and the combined FuncOrAt suppression check.
func TestDirectiveLookups(t *testing.T) {
	fset, d := parse(t, `package p

import "time"

//oc:hotpath audited
func f() {
	_ = time.Now() //oc:clock-ok test fixture
}
`)
	if len(d.Unknown()) != 0 {
		t.Fatalf("Unknown() = %+v, want none", d.Unknown())
	}
	var fn *ast.FuncDecl
	linePos := token.NoPos
	for f := range d.funcs {
		fn = f
	}
	if fn == nil {
		t.Fatal("no function directives collected")
	}
	if !d.Func(fn, "hotpath") {
		t.Error("Func(f, hotpath) = false, want true")
	}
	if d.Func(fn, "clock-ok") {
		t.Error("Func(f, clock-ok) = true; line directives must not leak to the function")
	}
	// Find the time.Now line via the recorded line index.
	for file, lines := range d.lines {
		for line, names := range lines {
			if names["clock-ok"] {
				linePos = filePos(fset, file, line)
			}
		}
	}
	if linePos == token.NoPos {
		t.Fatal("clock-ok line directive not collected")
	}
	if !d.At(linePos, "clock-ok") {
		t.Error("At(line, clock-ok) = false, want true")
	}
	if d.At(linePos, "hotpath") {
		t.Error("At(line, hotpath) = true, want false")
	}
	if !d.FuncOrAt(fn, linePos, "clock-ok") || !d.FuncOrAt(fn, linePos, "hotpath") {
		t.Error("FuncOrAt must see both the line and the function directive")
	}
	if d.FuncOrAt(nil, linePos, "hotpath") {
		t.Error("FuncOrAt(no function, hotpath) = true, want false")
	}
}

// filePos recovers a token.Pos on the given 1-based line of the named
// file — enough for the line-keyed At lookup.
func filePos(fset *token.FileSet, name string, line int) token.Pos {
	var pos token.Pos
	fset.Iterate(func(f *token.File) bool {
		if f.Name() == name {
			pos = f.LineStart(line)
			return false
		}
		return true
	})
	return pos
}
