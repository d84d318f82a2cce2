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
	if c, ok := g.ColAt(10); !ok || c != 1 {
		t.Errorf("ColAt(10) = %d,%v", c, ok)
	}
	if _, ok := g.ColAt(11); ok {
		t.Error("ColAt(11) should miss")
	}
	if r, ok := g.RowAt(5); !ok || r != 1 {
		t.Errorf("RowAt(5) = %d,%v", r, ok)
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
	g.UnblockH(3, geom.Iv(2, 5))
	if !g.HFree(3, geom.Iv(0, 9)) {
		t.Error("unblock failed")
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

// TestOccupancyModel cross-checks grid occupancy against a dense
// boolean reference after random commit/lift sequences.
func TestOccupancyModel(t *testing.T) {
	const n = 16
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		g := mustUniform(t, n, n, 1)
		var refH, refV [n][n]bool // [row][col] for H; [col][row] for V
		type op struct {
			horiz bool
			track int
			iv    geom.Interval
		}
		var committed []op
		for step := 0; step < 40; step++ {
			lo := rng.Intn(n)
			iv := geom.Iv(lo, geom.Min(lo+rng.Intn(5), n-1))
			track := rng.Intn(n)
			if rng.Intn(4) == 0 && len(committed) > 0 {
				// lift a random earlier commit
				k := rng.Intn(len(committed))
				o := committed[k]
				committed = append(committed[:k], committed[k+1:]...)
				if o.horiz {
					g.LiftHWire(o.track, o.iv)
					for c := o.iv.Lo; c <= o.iv.Hi; c++ {
						refH[o.track][c] = false
					}
				} else {
					g.LiftVWire(o.track, o.iv)
					for r := o.iv.Lo; r <= o.iv.Hi; r++ {
						refV[o.track][r] = false
					}
				}
				continue
			}
			horiz := rng.Intn(2) == 0
			// Skip if overlapping an existing commit of the same kind on the
			// same track (two nets never overlap; mirroring that invariant
			// keeps lift semantics exact).
			overlap := false
			for _, o := range committed {
				if o.horiz == horiz && o.track == track && o.iv.Overlaps(iv) {
					overlap = true
					break
				}
			}
			if overlap {
				continue
			}
			committed = append(committed, op{horiz, track, iv})
			if horiz {
				g.CommitHWire(track, iv)
				for c := iv.Lo; c <= iv.Hi; c++ {
					refH[track][c] = true
				}
			} else {
				g.CommitVWire(track, iv)
				for r := iv.Lo; r <= iv.Hi; r++ {
					refV[track][r] = true
				}
			}
		}
		for row := 0; row < n; row++ {
			for col := 0; col < n; col++ {
				wantFree := !refH[row][col] && !refV[col][row]
				if g.PointFree(col, row) != wantFree {
					t.Fatalf("trial %d: PointFree(%d,%d) = %v, want %v",
						trial, col, row, g.PointFree(col, row), wantFree)
				}
			}
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
