package grid

import (
	"errors"
	"math/rand"
	"testing"

	"overcell/internal/geom"
	"overcell/internal/robust"
)

func mustUniform(t *testing.T, nx, ny, pitch int) *Grid {
	t.Helper()
	g, err := Uniform(nx, ny, pitch)
	if err != nil {
		t.Fatalf("Uniform(%d,%d,%d): %v", nx, ny, pitch, err)
	}
	return g
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, []int{0}); err == nil {
		t.Error("empty xs accepted")
	}
	if _, err := New([]int{0}, nil); err == nil {
		t.Error("empty ys accepted")
	}
	if _, err := New([]int{0, 5, 5}, []int{0}); err == nil {
		t.Error("non-increasing xs accepted")
	}
	if _, err := New([]int{0}, []int{3, 1}); err == nil {
		t.Error("decreasing ys accepted")
	}
	if _, err := Uniform(0, 5, 1); err == nil {
		t.Error("zero-column uniform grid accepted")
	}
	if _, err := Uniform(5, 5, 0); err == nil {
		t.Error("zero pitch accepted")
	}
}

// Regression: construction errors are classified as invalid input in
// the robust taxonomy so API boundaries can reject zero-track grids
// without string matching.
func TestNewErrorsMatchInvalidInput(t *testing.T) {
	for _, tc := range []struct {
		name string
		err  func() error
	}{
		{"empty xs", func() error { _, err := New(nil, []int{0}); return err }},
		{"non-increasing", func() error { _, err := New([]int{0, 5, 5}, []int{0}); return err }},
		{"zero-track uniform", func() error { _, err := Uniform(0, 5, 1); return err }},
		{"zero-pitch cover", func() error { _, err := Cover(geom.R(0, 0, 10, 10), 0); return err }},
	} {
		if err := tc.err(); !errors.Is(err, robust.ErrInvalidInput) {
			t.Errorf("%s: err = %v, want ErrInvalidInput", tc.name, err)
		}
	}
}

func TestNonUniformSpacing(t *testing.T) {
	g, err := New([]int{0, 3, 10, 11}, []int{0, 7})
	if err != nil {
		t.Fatal(err)
	}
	if g.NX() != 4 || g.NY() != 2 {
		t.Fatalf("dims %dx%d", g.NX(), g.NY())
	}
	if g.SpanLengthX(0, 2) != 10 || g.SpanLengthX(2, 3) != 1 {
		t.Error("SpanLengthX wrong")
	}
	if g.SpanLengthY(0, 1) != 7 {
		t.Error("SpanLengthY wrong")
	}
	if g.Bounds() != geom.R(0, 0, 11, 7) {
		t.Errorf("Bounds = %v", g.Bounds())
	}
	if g.Point(2, 1) != geom.Pt(10, 7) {
		t.Errorf("Point = %v", g.Point(2, 1))
	}
}

func TestCover(t *testing.T) {
	g, err := Cover(geom.R(10, 20, 30, 25), 10)
	if err != nil {
		t.Fatal(err)
	}
	if g.NX() != 3 || g.NY() != 1 {
		t.Errorf("Cover dims %dx%d, want 3x1", g.NX(), g.NY())
	}
	if _, err := Cover(geom.R(0, 0, 5, 5), 0); err == nil {
		t.Error("zero pitch accepted")
	}
	// Degenerate rect still yields a 1x1 grid.
	g, err = Cover(geom.R(5, 5, 5, 5), 10)
	if err != nil || g.NX() != 1 || g.NY() != 1 {
		t.Errorf("degenerate Cover = %dx%d, %v", g.NX(), g.NY(), err)
	}
}

func TestTrackLookup(t *testing.T) {
	g, err := New([]int{0, 10, 25}, []int{0, 5})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct{ x, want int }{
		{-100, 0}, {0, 0}, {4, 0}, {5, 0} /* tie to lower */, {6, 1}, {17, 1}, {18, 2}, {100, 2},
	}
	for _, c := range cases {
		if got := g.NearestCol(c.x); got != c.want {
			t.Errorf("NearestCol(%d) = %d, want %d", c.x, got, c.want)
		}
	}
}

func TestBlockAndFree(t *testing.T) {
	g := mustUniform(t, 10, 10, 1)
	if !g.HFree(3, geom.Iv(0, 9)) || !g.VFree(3, geom.Iv(0, 9)) {
		t.Fatal("fresh grid not free")
	}
	g.BlockH(3, geom.Iv(2, 5))
	if g.HFree(3, geom.Iv(4, 8)) {
		t.Error("blocked span reported free")
	}
	if !g.HFree(3, geom.Iv(6, 9)) {
		t.Error("clear span reported blocked")
	}
	// LayerV on the same row is unaffected: crossing is legal.
	if !g.VFree(4, geom.Iv(0, 9)) {
		t.Error("H blockage leaked onto V layer")
	}
}

func TestPointFreeAndVias(t *testing.T) {
	g := mustUniform(t, 8, 8, 1)
	g.CommitVia(4, 5)
	if g.PointFree(4, 5) {
		t.Error("via point reported free")
	}
	if g.HFree(5, geom.Iv(0, 7)) {
		t.Error("via must block LayerH run through its point")
	}
	if g.VFree(4, geom.Iv(0, 7)) {
		t.Error("via must block LayerV run through its point")
	}
	if !g.HFree(5, geom.Iv(0, 3)) || !g.HFree(5, geom.Iv(5, 7)) {
		t.Error("via blocks more than its point")
	}
	g.LiftVia(4, 5)
	if !g.PointFree(4, 5) || g.WireCountIn(geom.Iv(0, 7), geom.Iv(0, 7)) != 0 {
		t.Error("LiftVia incomplete")
	}
}

func TestBlockRectMasks(t *testing.T) {
	g := mustUniform(t, 10, 10, 2) // tracks at 0,2,...,18
	g.BlockRect(geom.R(4, 4, 8, 8), MaskH)
	// Columns 2..4 and rows 2..4 covered.
	if g.HFree(3, geom.Iv(2, 4)) {
		t.Error("MaskH rect did not block LayerH")
	}
	if !g.VFree(3, geom.Iv(0, 9)) {
		t.Error("MaskH rect blocked LayerV")
	}
	g2 := mustUniform(t, 10, 10, 2)
	g2.BlockRect(geom.R(4, 4, 8, 8), MaskBoth)
	if g2.VFree(2, geom.Iv(2, 4)) || g2.HFree(2, geom.Iv(2, 4)) {
		t.Error("MaskBoth rect did not block both layers")
	}
	// A rect between tracks blocks nothing.
	g3 := mustUniform(t, 5, 5, 10)
	g3.BlockRect(geom.R(11, 11, 19, 19), MaskBoth)
	if g3.BlockedPoints() != 0 {
		t.Error("inter-track rect blocked points")
	}
}

func TestBlockedPerLayer(t *testing.T) {
	g := mustUniform(t, 10, 10, 1)
	g.BlockH(3, geom.Iv(2, 6)) // 5 points on the H layer
	g.BlockV(7, geom.Iv(0, 2)) // 3 points on the V layer
	g.BlockPoint(9, 9)         // 1 on each
	h, v := g.BlockedPerLayer()
	if h != 6 || v != 4 {
		t.Errorf("BlockedPerLayer = (%d, %d), want (6, 4)", h, v)
	}
	if got := g.BlockedPoints(); got != h+v {
		t.Errorf("BlockedPoints = %d, want %d", got, h+v)
	}
}

func TestClearSpans(t *testing.T) {
	g := mustUniform(t, 12, 12, 1)
	g.BlockH(6, geom.Iv(3, 4))
	g.BlockH(6, geom.Iv(9, 9))
	bounds := geom.Iv(0, 11)
	if iv, ok := g.HClearSpan(6, 7, bounds); !ok || iv != geom.Iv(5, 8) {
		t.Errorf("HClearSpan = %v,%v; want [5,8]", iv, ok)
	}
	if _, ok := g.HClearSpan(6, 3, bounds); ok {
		t.Error("HClearSpan on blocked point succeeded")
	}
	g.BlockV(2, geom.Iv(0, 5))
	if iv, ok := g.VClearSpan(2, 8, bounds); !ok || iv != geom.Iv(6, 11) {
		t.Errorf("VClearSpan = %v,%v; want [6,11]", iv, ok)
	}
}

func TestWireOverlayCounts(t *testing.T) {
	g := mustUniform(t, 10, 10, 1)
	g.CommitHWire(5, geom.Iv(2, 6)) // 5 points on H
	g.CommitVWire(3, geom.Iv(1, 4)) // 4 points on V
	if got := g.WireCountIn(geom.Iv(0, 9), geom.Iv(0, 9)); got != 9 {
		t.Errorf("WireCountIn(all) = %d, want 9", got)
	}
	if got := g.WireCountIn(geom.Iv(2, 3), geom.Iv(4, 5)); got != 3 {
		// H wire contributes cols 2,3 at row 5; V wire contributes row 4 at col 3.
		t.Errorf("WireCountIn(window) = %d, want 3", got)
	}
	g.LiftHWire(5, geom.Iv(2, 6))
	g.LiftVWire(3, geom.Iv(1, 4))
	if got := g.WireCountIn(geom.Iv(0, 9), geom.Iv(0, 9)); got != 0 {
		t.Errorf("after lift WireCountIn = %d", got)
	}
	if g.BlockedPoints() != 0 {
		t.Error("lift left blockage behind")
	}
}

func TestTerminalMarks(t *testing.T) {
	g := mustUniform(t, 10, 10, 1)
	g.MarkTerminal(4, 4)
	g.MarkTerminal(6, 4)
	if g.PointFree(4, 4) {
		t.Error("terminal point reported free")
	}
	if got := g.TermCountIn(geom.Iv(0, 9), geom.Iv(0, 9)); got != 2 {
		t.Errorf("TermCountIn = %d, want 2", got)
	}
	if got := g.TermCountIn(geom.Iv(5, 9), geom.Iv(0, 9)); got != 1 {
		t.Errorf("TermCountIn(half) = %d, want 1", got)
	}
	g.ClearTerminal(4, 4)
	if !g.PointFree(4, 4) {
		t.Error("ClearTerminal left blockage")
	}
	if got := g.TermCountIn(geom.Iv(0, 9), geom.Iv(0, 9)); got != 1 {
		t.Errorf("after clear TermCountIn = %d, want 1", got)
	}
}

func TestCongestion(t *testing.T) {
	g := mustUniform(t, 4, 4, 1)
	if c := g.CongestionIn(geom.Iv(0, 3), geom.Iv(0, 3)); c != 0 {
		t.Errorf("empty congestion = %v", c)
	}
	g.BlockRect(geom.R(0, 0, 3, 3), MaskBoth) // everything blocked
	if c := g.CongestionIn(geom.Iv(0, 3), geom.Iv(0, 3)); c != 1 {
		t.Errorf("full congestion = %v, want 1", c)
	}
	// Window clipping outside the grid.
	if c := g.CongestionIn(geom.Iv(-5, 8), geom.Iv(-5, 8)); c != 1 {
		t.Errorf("clipped congestion = %v, want 1", c)
	}
	if c := g.CongestionIn(geom.Iv(10, 20), geom.Iv(0, 3)); c != 0 {
		t.Errorf("out-of-range congestion = %v, want 0", c)
	}
}

// occModel is a dense boolean model of a grid's five overlays:
// h[o][row][col] for the LayerH overlays and v[o][col][row] for the
// LayerV ones.
type occModel struct {
	nx, ny int
	h      [3][][]bool // blockH, wireH, terms
	v      [2][][]bool // blockV, wireV
}

const (
	mBlock = iota
	mWire
	mTerms
)

func newOccModel(nx, ny int) *occModel {
	m := &occModel{nx: nx, ny: ny}
	for o := range m.h {
		m.h[o] = make([][]bool, ny)
		for j := range m.h[o] {
			m.h[o][j] = make([]bool, nx)
		}
	}
	for o := range m.v {
		m.v[o] = make([][]bool, nx)
		for i := range m.v[o] {
			m.v[o][i] = make([]bool, ny)
		}
	}
	return m
}

// setH sets or clears cols of row in the LayerH overlay o, clipped to
// the grid.
func (m *occModel) setH(o, row int, cols geom.Interval, on bool) {
	for c := geom.Max(cols.Lo, 0); c <= geom.Min(cols.Hi, m.nx-1); c++ {
		m.h[o][row][c] = on
	}
}

func (m *occModel) setV(o, col int, rows geom.Interval, on bool) {
	for r := geom.Max(rows.Lo, 0); r <= geom.Min(rows.Hi, m.ny-1); r++ {
		m.v[o][col][r] = on
	}
}

func (m *occModel) hOn(o, row, col int) bool {
	return row >= 0 && row < m.ny && col >= 0 && col < m.nx && m.h[o][row][col]
}

func (m *occModel) vOn(o, col, row int) bool {
	return row >= 0 && row < m.ny && col >= 0 && col < m.nx && m.v[o][col][row]
}

// countIn counts the model's points of the H overlays hs and the V
// overlays vs in the window.
func (m *occModel) countIn(cols, rows geom.Interval, hs, vs []int) int {
	n := 0
	for r := rows.Lo; r <= rows.Hi; r++ {
		for c := cols.Lo; c <= cols.Hi; c++ {
			for _, o := range hs {
				if m.hOn(o, r, c) {
					n++
				}
			}
			for _, o := range vs {
				if m.vOn(o, c, r) {
					n++
				}
			}
		}
	}
	return n
}

// clearSpan walks the clear run around x outward one point at a time,
// stopping at the bounds; blocked(y) reports the model's point y.
func clearSpan(x int, bounds geom.Interval, blocked func(int) bool) (geom.Interval, bool) {
	if !bounds.Contains(x) || blocked(x) {
		return geom.Interval{}, false
	}
	lo, hi := x, x
	for lo > bounds.Lo && !blocked(lo-1) {
		lo--
	}
	for hi < bounds.Hi && !blocked(hi+1) {
		hi++
	}
	return geom.Iv(lo, hi), true
}

// mutateRandomly applies one random mutation to g and the model. Spans
// may run off the grid and may be long enough to cross several words.
func mutateRandomly(rng *rand.Rand, g *Grid, m *occModel) {
	nx, ny := m.nx, m.ny
	span := func(n int) geom.Interval {
		lo := rng.Intn(n+6) - 3
		return geom.Iv(lo, lo+rng.Intn(geom.Min(n, 150)+2)-1)
	}
	col, row := rng.Intn(nx), rng.Intn(ny)
	switch rng.Intn(12) {
	case 0:
		cols := span(nx)
		g.BlockH(row, cols)
		m.setH(mBlock, row, cols, true)
	case 1:
		rows := span(ny)
		g.BlockV(col, rows)
		m.setV(mBlock, col, rows, true)
	case 2:
		x, y := span(nx), span(ny)
		r := geom.R(x.Lo, y.Lo, x.Hi, y.Hi) // canonical: x.Lo > x.Hi swaps
		mask := Mask(1 + rng.Intn(3))
		g.BlockRect(r, mask)
		cols, rows := geom.Iv(r.X0, r.X1), geom.Iv(r.Y0, r.Y1)
		for r := geom.Max(rows.Lo, 0); r <= geom.Min(rows.Hi, ny-1) && mask&MaskH != 0; r++ {
			m.setH(mBlock, r, cols, true)
		}
		for c := geom.Max(cols.Lo, 0); c <= geom.Min(cols.Hi, nx-1) && mask&MaskV != 0; c++ {
			m.setV(mBlock, c, rows, true)
		}
	case 3, 4:
		on := rng.Intn(2) == 0
		if on {
			g.BlockPoint(col, row)
		} else {
			g.UnblockPoint(col, row)
		}
		m.setH(mBlock, row, geom.Iv(col, col), on)
		m.setV(mBlock, col, geom.Iv(row, row), on)
	case 5, 6:
		cols := span(nx)
		on := rng.Intn(3) != 0
		if on {
			g.CommitHWire(row, cols)
		} else {
			g.LiftHWire(row, cols)
		}
		m.setH(mBlock, row, cols, on)
		m.setH(mWire, row, cols, on)
	case 7, 8:
		rows := span(ny)
		on := rng.Intn(3) != 0
		if on {
			g.CommitVWire(col, rows)
		} else {
			g.LiftVWire(col, rows)
		}
		m.setV(mBlock, col, rows, on)
		m.setV(mWire, col, rows, on)
	case 9:
		on := rng.Intn(2) == 0
		if on {
			g.CommitVia(col, row)
		} else {
			g.LiftVia(col, row)
		}
		for _, o := range []int{mBlock, mWire} {
			m.setH(o, row, geom.Iv(col, col), on)
			m.setV(o, col, geom.Iv(row, row), on)
		}
	default:
		on := rng.Intn(2) == 0
		if on {
			g.MarkTerminal(col, row)
		} else {
			g.ClearTerminal(col, row)
		}
		m.setH(mBlock, row, geom.Iv(col, col), on)
		m.setV(mBlock, col, geom.Iv(row, row), on)
		m.setH(mTerms, row, geom.Iv(col, col), on)
	}
}

// checkOccupancy compares every occupancy query of g with the model.
func checkOccupancy(t *testing.T, rng *rand.Rand, g *Grid, m *occModel) {
	t.Helper()
	nx, ny := m.nx, m.ny
	window := func(n int) geom.Interval {
		lo := rng.Intn(n+8) - 4
		return geom.Iv(lo, lo+rng.Intn(n+4)-1)
	}
	for row := 0; row < ny; row++ {
		bounds := []geom.Interval{geom.Iv(0, nx-1), window(nx)}
		blocked := func(c int) bool { return m.hOn(mBlock, row, c) }
		for col := -1; col <= nx; col++ {
			for _, b := range bounds {
				got, ok := g.HClearSpan(row, col, b)
				want, wantOK := clearSpan(col, b, blocked)
				if got != want || ok != wantOK {
					t.Fatalf("%dx%d: HClearSpan(%d, %d, %v) = %v,%v, model %v,%v",
						nx, ny, row, col, b, got, ok, want, wantOK)
				}
			}
			if col < 0 || col >= nx {
				continue
			}
			if got, want := g.PointFree(col, row), !m.hOn(mBlock, row, col) && !m.vOn(mBlock, col, row); got != want {
				t.Fatalf("%dx%d: PointFree(%d, %d) = %v, model %v", nx, ny, col, row, got, want)
			}
		}
		cols := window(nx)
		if got, want := g.HFree(row, cols), m.countIn(cols, geom.Iv(row, row), []int{mBlock}, nil) == 0; got != want {
			t.Fatalf("%dx%d: HFree(%d, %v) = %v, model %v", nx, ny, row, cols, got, want)
		}
	}
	for col := 0; col < nx; col++ {
		bounds := []geom.Interval{geom.Iv(0, ny-1), window(ny)}
		blocked := func(r int) bool { return m.vOn(mBlock, col, r) }
		for row := -1; row <= ny; row++ {
			for _, b := range bounds {
				got, ok := g.VClearSpan(col, row, b)
				want, wantOK := clearSpan(row, b, blocked)
				if got != want || ok != wantOK {
					t.Fatalf("%dx%d: VClearSpan(%d, %d, %v) = %v,%v, model %v,%v",
						nx, ny, col, row, b, got, ok, want, wantOK)
				}
			}
		}
		rows := window(ny)
		if got, want := g.VFree(col, rows), m.countIn(geom.Iv(col, col), rows, nil, []int{mBlock}) == 0; got != want {
			t.Fatalf("%dx%d: VFree(%d, %v) = %v, model %v", nx, ny, col, rows, got, want)
		}
	}
	for k := 0; k < 16; k++ {
		cols, rows := window(nx), window(ny)
		for _, c := range []struct {
			name   string
			got    int
			hs, vs []int
		}{
			{"WireCountIn", g.WireCountIn(cols, rows), []int{mWire}, []int{mWire}},
			{"HWireCountIn", g.HWireCountIn(cols, rows), []int{mWire}, nil},
			{"VWireCountIn", g.VWireCountIn(cols, rows), nil, []int{mWire}},
			{"TermCountIn", g.TermCountIn(cols, rows), []int{mTerms}, nil},
			{"BlockedCountIn", g.BlockedCountIn(cols, rows), []int{mBlock}, []int{mBlock}},
		} {
			if want := m.countIn(cols, rows, c.hs, c.vs); c.got != want {
				t.Fatalf("%dx%d: %s(%v, %v) = %d, model %d", nx, ny, c.name, cols, rows, c.got, want)
			}
		}
		in := func(iv geom.Interval, n int) geom.Interval { return iv.Intersect(geom.Iv(0, n-1)) }
		want := 0.0
		if cw, rw := in(cols, nx), in(rows, ny); !cw.Empty() && !rw.Empty() {
			want = float64(m.countIn(cw, rw, []int{mBlock}, []int{mBlock})) / float64(2*cw.Len()*rw.Len())
		}
		if got := g.CongestionIn(cols, rows); got != want {
			t.Fatalf("%dx%d: CongestionIn(%v, %v) = %v, model %v", nx, ny, cols, rows, got, want)
		}
	}
	all := func(n int) geom.Interval { return geom.Iv(0, n-1) }
	h, v := g.BlockedPerLayer()
	if wh, wv := m.countIn(all(nx), all(ny), []int{mBlock}, nil), m.countIn(all(nx), all(ny), nil, []int{mBlock}); h != wh || v != wv {
		t.Fatalf("%dx%d: BlockedPerLayer = (%d, %d), model (%d, %d)", nx, ny, h, v, wh, wv)
	}
}

// TestOccupancyModel cross-checks every occupancy query against a
// dense boolean model after random sequences of every mutation, on
// grids whose sides fall below, on and past the 64-bit word edges.
func TestOccupancyModel(t *testing.T) {
	sides := []int{1, 63, 64, 65, 130, 200}
	rng := rand.New(rand.NewSource(7))
	for _, nx := range sides {
		for _, ny := range sides {
			for trial := 0; trial < 2; trial++ {
				g := mustUniform(t, nx, ny, 1)
				m := newOccModel(nx, ny)
				for step := 0; step < 60; step++ {
					mutateRandomly(rng, g, m)
					if step%30 == 29 {
						checkOccupancy(t, rng, g, m)
					}
				}
			}
		}
	}
}

// TestMutationsAllocateNothing: occupancy is allocated once, by New,
// so no mutation or query allocates afterwards.
func TestMutationsAllocateNothing(t *testing.T) {
	g := mustUniform(t, 130, 70, 1)
	rng := rand.New(rand.NewSource(3))
	m := newOccModel(130, 70)
	if n := testing.AllocsPerRun(200, func() { mutateRandomly(rng, g, m) }); n != 0 {
		t.Errorf("%.1f allocations per random mutation, want 0", n)
	}
	if n := testing.AllocsPerRun(20, func() {
		for j := 0; j < 70; j++ {
			g.CommitHWire(j, geom.Iv(j, j+70))
			g.LiftHWire(j, geom.Iv(j+1, j+60))
			g.BlockRect(geom.R(j, j, j+40, j+3), MaskBoth)
			g.MarkTerminal(j, j)
			g.CommitVia(j+1, j)
		}
		g.BlockedPerLayer()
		g.CongestionIn(geom.Iv(-2, 2), geom.Iv(60, 80))
	}); n != 0 {
		t.Errorf("%.1f allocations per mutation sweep, want 0", n)
	}
}

// TestStorageOneAllocation: the five overlays take 3·NY·⌈NX/64⌉ +
// 2·NX·⌈NY/64⌉ words, and New makes one allocation for all of them.
// No overlay's capacity runs past its own words, so a track index off
// the grid cannot write into the next overlay.
func TestStorageOneAllocation(t *testing.T) {
	for _, d := range [][2]int{{1, 1}, {64, 1}, {65, 200}, {200, 65}, {856, 224}} {
		nx, ny := d[0], d[1]
		g := mustUniform(t, nx, ny, 1)
		h, v := ny*((nx+63)/64), nx*((ny+63)/64)
		words := 0
		for _, o := range []struct {
			name string
			bits geom.Bits
			n    int
		}{
			{"blockH", g.blockH, h}, {"wireH", g.wireH, h}, {"terms", g.terms, h},
			{"blockV", g.blockV, v}, {"wireV", g.wireV, v},
		} {
			if len(o.bits) != o.n || cap(o.bits) != o.n {
				t.Errorf("%dx%d: %s has len %d cap %d, want %d", nx, ny, o.name, len(o.bits), cap(o.bits), o.n)
			}
			words += len(o.bits)
		}
		if words != 3*h+2*v {
			t.Errorf("%dx%d: occupancy holds %d words, want %d", nx, ny, words, 3*h+2*v)
		}
		xs, ys := g.xs, g.ys
		// The grid, its two track lists and the occupancy.
		if n := testing.AllocsPerRun(5, func() { New(xs, ys) }); n != 4 {
			t.Errorf("%dx%d: New makes %.0f allocations, want 4", nx, ny, n)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%dx%d: BlockPoint off the grid did not panic", nx, ny)
				}
			}()
			g.BlockPoint(0, ny)
		}()
		if g.WireCountIn(geom.Iv(0, nx-1), geom.Iv(0, ny-1)) != 0 {
			t.Errorf("%dx%d: a write off the grid reached the wire overlay", nx, ny)
		}
	}
}

// TestGridSizeCap: a grid of more than 1<<24 points is invalid input;
// one of exactly 1<<24 is accepted.
func TestGridSizeCap(t *testing.T) {
	if g, err := Uniform(1<<12, 1<<12, 1); err != nil || g.NX()*g.NY() != maxPoints {
		t.Fatalf("grid at the cap: %v", err)
	}
	for _, d := range [][2]int{{1<<12 + 1, 1 << 12}, {1 << 12, 1<<12 + 1}, {1<<13 + 1, 1 << 11}} {
		if _, err := Uniform(d[0], d[1], 1); !errors.Is(err, robust.ErrInvalidInput) {
			t.Errorf("%dx%d grid: err = %v, want ErrInvalidInput", d[0], d[1], err)
		}
	}
}

func TestIndexWindow(t *testing.T) {
	g := mustUniform(t, 10, 10, 10) // tracks at 0,10,...,90
	cols, rows, ok := g.IndexWindow(geom.R(15, 25, 45, 55))
	if !ok || cols != geom.Iv(2, 4) || rows != geom.Iv(3, 5) {
		t.Errorf("IndexWindow = %v,%v,%v", cols, rows, ok)
	}
	// A window between tracks covers nothing.
	if _, _, ok := g.IndexWindow(geom.R(11, 11, 19, 19)); ok {
		t.Error("inter-track window reported covered")
	}
	// Exact track hit.
	cols, rows, ok = g.IndexWindow(geom.R(30, 30, 30, 30))
	if !ok || cols != geom.Iv(3, 3) || rows != geom.Iv(3, 3) {
		t.Errorf("point window = %v,%v,%v", cols, rows, ok)
	}
}
