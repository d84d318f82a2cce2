package congest

import (
	"encoding/json"
	"math"
	"testing"

	"overcell/internal/geom"
	"overcell/internal/grid"
)

func uniformGrid(t *testing.T, n int) *grid.Grid {
	t.Helper()
	xs := make([]int, n)
	for i := range xs {
		xs[i] = i * 2
	}
	g, err := grid.New(xs, xs)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestSeriesSamples(t *testing.T) {
	g := uniformGrid(t, 16) // 16x16 tracks => 2x2 tiles at win 8
	s := New(8, 5000)
	s.NetCommitted(1, "a", false, g)
	g.CommitHWire(3, geom.Iv(0, 15)) // 16 blocked points, all in the bottom tile row
	s.NetCommitted(2, "b", false, g)
	rep := s.Report(true)
	if rep.Cols != 2 || rep.Rows != 2 || rep.Win != 8 {
		t.Fatalf("tiling = %dx%d win %d", rep.Cols, rep.Rows, rep.Win)
	}
	if len(rep.Samples) != 2 || len(rep.Frames) != 2 {
		t.Fatalf("%d samples, %d frames", len(rep.Samples), len(rep.Frames))
	}
	empty := rep.Samples[0]
	if empty.UtilHBP != 0 || empty.UtilVBP != 0 || empty.PeakBP != 0 || empty.Overflow != 0 {
		t.Fatalf("empty-grid sample = %+v", empty)
	}
	after := rep.Samples[1]
	// 16 H points blocked out of 256 per layer: 625 bp on H, 0 on V.
	if after.UtilHBP != 625 || after.UtilVBP != 0 {
		t.Fatalf("utilisation = %d/%d bp, want 625/0", after.UtilHBP, after.UtilVBP)
	}
	// Each bottom tile: 8 of its 128 (point, layer) slots blocked = 625 bp.
	if after.PeakBP != 625 || after.PeakRow != 0 {
		t.Fatalf("peak = %d bp at row %d, want 625 at row 0", after.PeakBP, after.PeakRow)
	}
	if after.Overflow != 0 {
		t.Fatalf("overflow tiles = %d, want 0", after.Overflow)
	}
	if f := rep.Frames[1]; f[0] != 625 || f[1] != 625 || f[2] != 0 || f[3] != 0 {
		t.Fatalf("frame = %v", f)
	}
}

func TestOverflowThreshold(t *testing.T) {
	g := uniformGrid(t, 8) // one tile
	s := New(8, 2000)
	for r := 0; r < 2; r++ {
		g.BlockH(r, geom.Iv(0, 7))
	}
	// 16 of 128 slots = 1250 bp: below threshold.
	s.NetCommitted(1, "a", false, g)
	for r := 2; r < 4; r++ {
		g.BlockH(r, geom.Iv(0, 7))
	}
	// 32 of 128 = 2500 bp: over.
	s.NetCommitted(2, "b", true, g)
	rep := s.Report(false)
	if rep.Samples[0].Overflow != 0 || rep.Samples[1].Overflow != 1 {
		t.Fatalf("overflow per sample = %d, %d; want 0, 1",
			rep.Samples[0].Overflow, rep.Samples[1].Overflow)
	}
	if !rep.Samples[1].Failed {
		t.Fatal("failed flag not recorded")
	}
	if rep.Frames != nil {
		t.Fatal("Report(false) carried frames")
	}
	if last, ok := s.Last(); !ok || last.Rank != 2 {
		t.Fatalf("Last = %+v, %v", last, ok)
	}
}

func TestReportJSONStable(t *testing.T) {
	g := uniformGrid(t, 8)
	s := New(0, 0)
	g.BlockV(1, geom.Iv(0, 3))
	s.NetCommitted(1, "n1", false, g)
	a, err := json.Marshal(s.Report(true))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := json.Marshal(s.Report(true))
	if string(a) != string(b) {
		t.Fatal("repeated Report marshals differ")
	}
	var rt Report
	if err := json.Unmarshal(a, &rt); err != nil {
		t.Fatal(err)
	}
	if rt.Win != DefaultWin || rt.OverflowBP != DefaultOverflowBP {
		t.Fatalf("defaults did not round-trip: %+v", rt)
	}
}

// TestHeatmap tiles grids whose left half is fully blocked and whose
// right half is free.
func TestHeatmap(t *testing.T) {
	leftHalf := func(nx, ny int) *grid.Grid {
		g, err := grid.Uniform(nx, ny, 10)
		if err != nil {
			t.Fatal(err)
		}
		g.BlockRect(geom.R(0, 0, (nx/2-1)*10, (ny-1)*10), grid.MaskBoth)
		return g
	}
	f := Tile(leftHalf(32, 16), 8)
	if f.Win != 8 || f.Cols != 4 || f.Rows != 2 || len(f.BP) != 8 {
		t.Fatalf("tiling = %dx%d win %d, %d tiles; want 4x2 win 8", f.Cols, f.Rows, f.Win, len(f.BP))
	}
	for i, bp := range f.BP {
		want := 0
		if i%f.Cols < 2 {
			want = 10000
		}
		if bp != want {
			t.Errorf("tile (%d,%d) = %d bp, want %d", i%f.Cols, i/f.Cols, bp, want)
		}
	}
	if c, r, bp := f.Hottest(); c != 0 || r != 0 || bp != 10000 {
		t.Errorf("hottest = (%d,%d) %d bp", c, r, bp)
	}
	// Ragged edge: win that does not divide the track count.
	if f := Tile(leftHalf(10, 10), 8); f.Cols != 2 || f.Rows != 2 {
		t.Errorf("ragged tiles = %dx%d", f.Cols, f.Rows)
	}
	// A window past the grid's larger side is clamped to it, not
	// overflowed into an empty tiling; win < 1 means DefaultWin.
	if f := Tile(leftHalf(32, 16), math.MaxInt); f.Win != 32 || f.Cols != 1 || f.Rows != 1 || f.BP[0] != 5000 {
		t.Errorf("MaxInt window = %dx%d win %d %v, want one 5000 bp tile of win 32", f.Cols, f.Rows, f.Win, f.BP)
	}
	if f := Tile(leftHalf(32, 16), 0); f.Win != DefaultWin {
		t.Errorf("win 0 tiled at %d, want DefaultWin", f.Win)
	}
}
