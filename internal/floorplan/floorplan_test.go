package floorplan

import (
	"testing"

	"overcell/internal/geom"
)

func twoRowLayout(t *testing.T) *Layout {
	t.Helper()
	l := New(DefaultTech(), 16)
	r0 := l.AddRow(24)
	a := r0.AddCell("a", 100, 60)
	b := r0.AddCell("b", 80, 50)
	r1 := l.AddRow(24)
	c := r1.AddCell("c", 120, 70)
	a.AddPin("p1", 10, PinTop)
	b.AddPin("p2", 40, PinTop)
	c.AddPin("p3", 30, PinBottom)
	c.AddPin("p4", 90, PinTop)
	return l
}

func TestTechValidate(t *testing.T) {
	if err := DefaultTech().Validate(); err != nil {
		t.Errorf("default tech invalid: %v", err)
	}
	if err := (Tech{M12Pitch: 0, M34Pitch: 5}).Validate(); err == nil {
		t.Error("zero pitch accepted")
	}
	if err := (Tech{M12Pitch: 10, M34Pitch: 5}).Validate(); err == nil {
		t.Error("inverted pitches accepted")
	}
}

func TestPlaceGeometry(t *testing.T) {
	l := twoRowLayout(t)
	if err := l.Place([]int{40}); err != nil {
		t.Fatal(err)
	}
	// Row 0: cells at x=16+24=40 and x=40+100+24=164; width = margin+24+100+24+80+24 = 268.
	cells := l.Cells()
	if got := cells[0].Rect(); got.X0 != 40 {
		t.Errorf("cell a at x %d, want 40", got.X0)
	}
	if got := cells[1].Rect(); got.X0 != 164 {
		t.Errorf("cell b at x %d, want 164", got.X0)
	}
	// Row 0 height = 60 (tallest); row 1 bottom = margin+60+40 = 116.
	if got := cells[2].Rect(); got.Y0 != 116 {
		t.Errorf("cell c at y %d, want 116", got.Y0)
	}
	// Height = 16 + 60 + 40 + 70 + 16 = 202.
	if l.Height() != 202 {
		t.Errorf("height = %d, want 202", l.Height())
	}
	if l.Width() != 268+16 {
		t.Errorf("width = %d, want 284", l.Width())
	}
	if l.Area() != int64(l.Width())*int64(l.Height()) {
		t.Error("area mismatch")
	}
}

func TestShortCellCentred(t *testing.T) {
	l := twoRowLayout(t)
	if err := l.Place([]int{40}); err != nil {
		t.Fatal(err)
	}
	b := l.Rows[0].Cells[1] // 50 tall in a 60-tall row: centred with 5 below
	if b.Rect().Y0 != 16+5 {
		t.Errorf("short cell y = %d, want 21", b.Rect().Y0)
	}
}

func TestPinPositionsAndChannels(t *testing.T) {
	l := twoRowLayout(t)
	if err := l.Place([]int{40}); err != nil {
		t.Fatal(err)
	}
	a := l.Rows[0].Cells[0]
	p1 := a.Pins[0]
	if p1.Pos() != geom.Pt(50, 76) {
		t.Errorf("p1 at %v, want (50,76)", p1.Pos())
	}
	if p1.ChannelIndex() != 0 {
		t.Errorf("p1 channel = %d, want 0", p1.ChannelIndex())
	}
	c := l.Rows[1].Cells[0]
	p3, p4 := c.Pins[0], c.Pins[1]
	if p3.ChannelIndex() != 0 {
		t.Errorf("p3 channel = %d, want 0", p3.ChannelIndex())
	}
	if p4.ChannelIndex() != 1 {
		t.Errorf("p4 channel = %d (above top row), want 1 = NumChannels", p4.ChannelIndex())
	}
	if p3.Cell() != c {
		t.Error("pin cell link broken")
	}
}

func TestChannelAndRowRects(t *testing.T) {
	l := twoRowLayout(t)
	if err := l.Place([]int{40}); err != nil {
		t.Fatal(err)
	}
	rr := l.RowRect(0)
	if rr.Y0 != 16 || rr.Y1 != 76 {
		t.Errorf("row rect %v, want y 16..76", rr)
	}
}

func TestGaps(t *testing.T) {
	l := twoRowLayout(t)
	if err := l.Place([]int{40}); err != nil {
		t.Fatal(err)
	}
	gaps := l.Gaps(0)
	// Margin 16, first cell at 40: gap [16,40]; between cells [140,164];
	// after cell b (ends 244) to width-margin.
	if len(gaps) != 3 {
		t.Fatalf("gaps = %v, want 3", gaps)
	}
	if gaps[0] != geom.Iv(16, 40) || gaps[1] != geom.Iv(140, 164) {
		t.Errorf("gaps = %v", gaps)
	}
}

func TestValidation(t *testing.T) {
	l := New(DefaultTech(), 10)
	if err := l.Place(nil); err == nil {
		t.Error("empty layout placed")
	}
	l.AddRow(10)
	if err := l.Place(nil); err == nil {
		t.Error("empty row accepted")
	}
	r := l.Rows[0]
	r.AddCell("z", 0, 10)
	if err := l.Place(nil); err == nil {
		t.Error("zero-width cell accepted")
	}
	r.Cells[0].W = 50
	c := r.Cells[0]
	c.AddPin("bad", 99, PinTop)
	if err := l.Place(nil); err == nil {
		t.Error("out-of-cell pin accepted")
	}
	c.Pins[0].DX = 10
	if err := l.Place([]int{1}); err == nil {
		t.Error("wrong channel-height count accepted")
	}
	if err := l.Place(nil); err != nil {
		t.Errorf("valid single-row layout rejected: %v", err)
	}
	if l.NumChannels() != 0 {
		t.Error("single-row layout has channels")
	}
}

func TestStats(t *testing.T) {
	l := twoRowLayout(t)
	s := l.ComputeStats()
	if s.Cells != 3 || s.Rows != 2 || s.Pins != 4 {
		t.Errorf("stats = %+v", s)
	}
	if s.CellArea != 100*60+80*50+120*70 {
		t.Errorf("cell area = %d", s.CellArea)
	}
}
