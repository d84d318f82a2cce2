package global

import (
	"errors"
	"reflect"
	"testing"

	"overcell/internal/channel"
	"overcell/internal/floorplan"
	"overcell/internal/netlist"
	"overcell/internal/robust"
)

// threeRowLayout builds rows r0, r1, r2 with one wide cell each and
// generous feedthrough gaps.
func threeRowLayout(t *testing.T) (*floorplan.Layout, [3]*floorplan.Cell) {
	t.Helper()
	l := floorplan.New(floorplan.DefaultTech(), 16)
	var cells [3]*floorplan.Cell
	for i := 0; i < 3; i++ {
		r := l.AddRow(48)
		cells[i] = r.AddCell("c", 200, 64)
	}
	return l, cells
}

func place(t *testing.T, l *floorplan.Layout) {
	t.Helper()
	hs := make([]int, l.NumChannels())
	if err := l.Place(hs); err != nil {
		t.Fatal(err)
	}
}

func TestSingleChannelNet(t *testing.T) {
	l, cells := threeRowLayout(t)
	p1 := cells[0].AddPin("a", 16, floorplan.PinTop)     // faces channel 0, bottom side
	p2 := cells[1].AddPin("b", 120, floorplan.PinBottom) // faces channel 0, top side
	place(t, l)
	a, err := Assign(l, []Net{{ID: 0, Name: "n", Pins: []*floorplan.Pin{p1, p2}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Problems) != 2 {
		t.Fatalf("problems = %d, want 2", len(a.Problems))
	}
	if a.Feedthroughs != 0 {
		t.Errorf("feedthroughs = %d, want 0", a.Feedthroughs)
	}
	prob := a.Problems[0]
	if err := prob.Validate(); err != nil {
		t.Fatalf("channel 0 problem invalid: %v", err)
	}
	// Channel 1 must be empty.
	for c := range a.Problems[1].Top {
		if a.Problems[1].Top[c] != 0 || a.Problems[1].Bottom[c] != 0 {
			t.Fatal("net leaked into channel 1")
		}
	}
	// Pin sides: top-edge pin of row 0 on the bottom side of channel 0.
	foundBot, foundTop := false, false
	for c := range prob.Bottom {
		if prob.Bottom[c] == 1 {
			foundBot = true
		}
		if prob.Top[c] == 1 {
			foundTop = true
		}
	}
	if !foundBot || !foundTop {
		t.Errorf("pin sides wrong: bot=%v top=%v", foundBot, foundTop)
	}
}

func TestMultiChannelNetGetsFeedthrough(t *testing.T) {
	l, cells := threeRowLayout(t)
	p1 := cells[0].AddPin("a", 16, floorplan.PinTop)     // channel 0
	p2 := cells[2].AddPin("b", 120, floorplan.PinBottom) // channel 1
	place(t, l)
	a, err := Assign(l, []Net{{ID: 3, Name: "x", Pins: []*floorplan.Pin{p1, p2}}})
	if err != nil {
		t.Fatal(err)
	}
	if a.Feedthroughs != 1 {
		t.Fatalf("feedthroughs = %d, want 1 (crossing row 1)", a.Feedthroughs)
	}
	if a.FeedthroughLen != 64 {
		t.Errorf("feedthrough length = %d, want row height 64", a.FeedthroughLen)
	}
	if want := []int{0, 0, 0, 0, 64}; !reflect.DeepEqual(a.NetFeedthroughLen, want) {
		t.Errorf("per-net feedthrough length = %v, want %v (net 4 only)", a.NetFeedthroughLen, want)
	}
	// Both channels must now have routable 2-pin problems for net 4.
	for i := 0; i < 2; i++ {
		if err := a.Problems[i].Validate(); err != nil {
			t.Fatalf("channel %d invalid: %v", i, err)
		}
		if _, err := channel.Greedy(a.Problems[i]); err != nil {
			t.Fatalf("channel %d unroutable: %v", i, err)
		}
	}
}

func TestPinFacingNoChannelRejected(t *testing.T) {
	l, cells := threeRowLayout(t)
	p1 := cells[0].AddPin("a", 16, floorplan.PinBottom) // faces channel -1
	p2 := cells[1].AddPin("b", 10, floorplan.PinBottom)
	place(t, l)
	if _, err := Assign(l, []Net{{ID: 0, Pins: []*floorplan.Pin{p1, p2}}}); err == nil {
		t.Error("pin facing outside accepted")
	}
}

func TestNegativeNetIDRejected(t *testing.T) {
	l, cells := threeRowLayout(t)
	p1 := cells[0].AddPin("a", 16, floorplan.PinTop)
	p2 := cells[1].AddPin("b", 120, floorplan.PinBottom)
	place(t, l)
	_, err := Assign(l, []Net{{ID: -2, Name: "n", Pins: []*floorplan.Pin{p1, p2}}})
	if !errors.Is(err, robust.ErrInvalidInput) {
		t.Errorf("negative net ID: err = %v, want invalid input", err)
	}
}

func TestColumnCollisionProbing(t *testing.T) {
	l, cells := threeRowLayout(t)
	// Two nets with pins at the same x on the same channel side.
	p1 := cells[0].AddPin("a", 16, floorplan.PinTop)
	p2 := cells[1].AddPin("b", 16, floorplan.PinBottom)
	p3 := cells[0].AddPin("c", 16, floorplan.PinTop) // same x as p1! same side
	p4 := cells[1].AddPin("d", 100, floorplan.PinBottom)
	place(t, l)
	a, err := Assign(l, []Net{
		{ID: 0, Name: "n0", Pins: []*floorplan.Pin{p1, p2}},
		{ID: 1, Name: "n1", Pins: []*floorplan.Pin{p3, p4}},
	})
	if err != nil {
		t.Fatal(err)
	}
	prob := a.Problems[0]
	if err := prob.Validate(); err != nil {
		t.Fatal(err)
	}
	// Both nets present on the bottom side at distinct columns.
	count := map[int]int{}
	for _, n := range prob.Bottom {
		count[n]++
	}
	if count[1] != 1 || count[2] != 1 {
		t.Errorf("bottom side pins: %v", count)
	}
}

func TestDegenerateInputs(t *testing.T) {
	l, cells := threeRowLayout(t)
	p1 := cells[0].AddPin("a", 16, floorplan.PinTop)
	place(t, l)
	if _, err := Assign(l, []Net{{ID: 0, Pins: []*floorplan.Pin{p1}}}); err == nil {
		t.Error("single-pin net accepted")
	}
	// Unplaced layout.
	l2 := floorplan.New(floorplan.DefaultTech(), 16)
	l2.AddRow(10).AddCell("x", 50, 50)
	if _, err := Assign(l2, nil); err == nil {
		t.Error("unplaced layout accepted")
	}
	// Single-row layout with nets.
	l3 := floorplan.New(floorplan.DefaultTech(), 16)
	r := l3.AddRow(10)
	c := r.AddCell("x", 50, 50)
	q1 := c.AddPin("p", 10, floorplan.PinTop)
	q2 := c.AddPin("q", 20, floorplan.PinTop)
	if err := l3.Place(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := Assign(l3, []Net{{ID: 0, Pins: []*floorplan.Pin{q1, q2}}}); err == nil {
		t.Error("nets without channels accepted")
	}
	if a, err := Assign(l3, nil); err != nil || len(a.Problems) != 0 {
		t.Errorf("empty assignment failed: %v", err)
	}
	_ = netlist.NetID(0)
}

func TestFullPipelineThroughChannels(t *testing.T) {
	l, cells := threeRowLayout(t)
	// A 4-pin net spanning all rows plus two local nets.
	p1 := cells[0].AddPin("a", 24, floorplan.PinTop)
	p2 := cells[1].AddPin("b", 48, floorplan.PinBottom)
	p3 := cells[1].AddPin("c", 72, floorplan.PinTop)
	p4 := cells[2].AddPin("d", 96, floorplan.PinBottom)
	q1 := cells[0].AddPin("e", 120, floorplan.PinTop)
	q2 := cells[1].AddPin("f", 144, floorplan.PinBottom)
	place(t, l)
	a, err := Assign(l, []Net{
		{ID: 0, Name: "span", Pins: []*floorplan.Pin{p1, p2, p3, p4}},
		{ID: 1, Name: "local", Pins: []*floorplan.Pin{q1, q2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, prob := range a.Problems {
		if err := prob.Validate(); err != nil {
			t.Fatalf("channel %d: %v", i, err)
		}
		sol, err := channel.Greedy(prob)
		if err != nil {
			t.Fatalf("channel %d: %v", i, err)
		}
		if err := sol.Validate(prob); err != nil {
			t.Fatalf("channel %d solution: %v", i, err)
		}
	}
}
