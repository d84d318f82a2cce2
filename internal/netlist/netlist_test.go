package netlist

import (
	"errors"
	"testing"

	"overcell/internal/geom"
	"overcell/internal/robust"
)

func TestAddAssignsIDs(t *testing.T) {
	nl := New()
	a := nl.AddPoints("a", Signal, geom.Pt(0, 0), geom.Pt(5, 5))
	b := nl.AddPoints("b", Critical, geom.Pt(1, 1), geom.Pt(2, 2))
	if a.ID != 0 || b.ID != 1 {
		t.Errorf("IDs = %d,%d; want 0,1", a.ID, b.ID)
	}
	if nl.Len() != 2 {
		t.Errorf("Len = %d", nl.Len())
	}
	if nl.Net(1) != b || nl.Net(2) != nil || nl.Net(-1) != nil {
		t.Error("Net lookup wrong")
	}
}

func TestNetBBoxAndHalfPerimeter(t *testing.T) {
	nl := New()
	n := nl.AddPoints("n", Signal, geom.Pt(2, 8), geom.Pt(10, 1), geom.Pt(5, 5))
	got, err := n.BBox()
	if err != nil {
		t.Fatalf("BBox error: %v", err)
	}
	if got != geom.R(2, 1, 10, 8) {
		t.Errorf("BBox = %v", got)
	}
	if got := n.HalfPerimeter(); got != 15 {
		t.Errorf("HalfPerimeter = %d, want 15", got)
	}
}

// Regression: BBox of a terminal-less net used to panic; it must now
// return a typed ErrInvalidInput (and HalfPerimeter must degrade to 0)
// so degenerate inputs surface as errors at the API boundary.
func TestBBoxEmptyNetReturnsInvalidInput(t *testing.T) {
	n := &Net{Name: "empty"}
	r, err := n.BBox()
	if !errors.Is(err, robust.ErrInvalidInput) {
		t.Fatalf("empty net BBox error = %v, want ErrInvalidInput", err)
	}
	if r != (geom.Rect{}) {
		t.Errorf("empty net BBox rect = %v, want zero", r)
	}
	if hp := n.HalfPerimeter(); hp != 0 {
		t.Errorf("empty net HalfPerimeter = %d, want 0", hp)
	}
}

func TestValidate(t *testing.T) {
	nl := New()
	nl.AddPoints("ok", Signal, geom.Pt(0, 0), geom.Pt(1, 1))
	if err := nl.Validate(); err != nil {
		t.Errorf("valid netlist rejected: %v", err)
	}

	bad := New()
	bad.AddPoints("single", Signal, geom.Pt(0, 0))
	if err := bad.Validate(); !errors.Is(err, robust.ErrInvalidInput) {
		t.Errorf("single-terminal net error = %v, want ErrInvalidInput", err)
	}

	dup := New()
	dup.AddPoints("dup", Signal, geom.Pt(3, 3), geom.Pt(3, 3))
	if err := dup.Validate(); !errors.Is(err, robust.ErrInvalidInput) {
		t.Errorf("duplicate-terminal net error = %v, want ErrInvalidInput", err)
	}
}

func TestComputeStats(t *testing.T) {
	nl := New()
	nl.AddPoints("a", Signal, geom.Pt(0, 0), geom.Pt(1, 1))
	nl.AddPoints("b", Signal, geom.Pt(0, 0), geom.Pt(1, 1), geom.Pt(2, 2), geom.Pt(3, 3))
	s := ComputeStats(nl.Nets())
	if s.Nets != 2 || s.Pins != 6 || s.MaxPins != 4 || s.TwoTerminal != 1 {
		t.Errorf("stats = %+v", s)
	}
	if s.AvgPins != 3.0 {
		t.Errorf("AvgPins = %v, want 3", s.AvgPins)
	}
	empty := ComputeStats(nil)
	if empty.AvgPins != 0 {
		t.Errorf("empty AvgPins = %v", empty.AvgPins)
	}
}

func TestSortByHalfPerimeter(t *testing.T) {
	nl := New()
	nl.AddPoints("short", Signal, geom.Pt(0, 0), geom.Pt(1, 1))
	nl.AddPoints("long", Signal, geom.Pt(0, 0), geom.Pt(50, 50))
	nl.AddPoints("mid", Signal, geom.Pt(0, 0), geom.Pt(10, 10))
	nl.AddPoints("tie", Signal, geom.Pt(5, 5), geom.Pt(15, 15)) // same hp as mid

	nets := append([]*Net(nil), nl.Nets()...)
	SortByHalfPerimeter(nets)
	gotNames := []string{nets[0].Name, nets[1].Name, nets[2].Name, nets[3].Name}
	want := []string{"long", "mid", "tie", "short"}
	for i := range want {
		if gotNames[i] != want[i] {
			t.Errorf("order[%d] = %s, want %s (full: %v)", i, gotNames[i], want[i], gotNames)
		}
	}
}

func TestClassString(t *testing.T) {
	if Signal.String() != "signal" || Power.String() != "power" {
		t.Error("class names wrong")
	}
	if Class(99).String() != "class(99)" {
		t.Errorf("out-of-range class = %q", Class(99).String())
	}
}
