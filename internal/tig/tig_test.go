package tig

import (
	"testing"
	"unsafe"

	"overcell/internal/geom"
	"overcell/internal/grid"
)

func freshGrid(t *testing.T, nx, ny int) *grid.Grid {
	t.Helper()
	g, err := grid.Uniform(nx, ny, 1)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func runSearch(t *testing.T, g *grid.Grid, from, to Point, cfg Config) *Result {
	t.Helper()
	res, ok := Search(g, from, to, cfg)
	if !ok {
		t.Fatalf("Search %v -> %v failed", from, to)
	}
	for _, p := range res.Paths {
		if err := p.Validate(from, to); err != nil {
			t.Fatalf("invalid path %v: %v", p.Points, err)
		}
	}
	return res
}

func TestStraightShot(t *testing.T) {
	g := freshGrid(t, 10, 10)
	// Same column: a zero-corner vertical run.
	res := runSearch(t, g, Point{3, 1}, Point{3, 8}, Config{})
	if res.Corners != 0 {
		t.Errorf("corners = %d, want 0", res.Corners)
	}
	// Same row: zero-corner horizontal run.
	res = runSearch(t, g, Point{1, 5}, Point{8, 5}, Config{})
	if res.Corners != 0 {
		t.Errorf("corners = %d, want 0", res.Corners)
	}
}

func TestLShape(t *testing.T) {
	g := freshGrid(t, 10, 10)
	res := runSearch(t, g, Point{2, 2}, Point{7, 6}, Config{})
	if res.Corners != 1 {
		t.Errorf("corners = %d, want 1 (L-shape)", res.Corners)
	}
	// Both L orientations must be found: corners (2,6) and (7,2).
	found := map[Point]bool{}
	for _, p := range res.Paths {
		cs := p.AppendCorners(nil)
		if len(cs) != 1 {
			t.Errorf("path %v has %d corners", p.Points, len(cs))
			continue
		}
		found[cs[0]] = true
	}
	if !found[Point{2, 6}] || !found[Point{7, 2}] {
		t.Errorf("missing an L orientation; got corners %v", found)
	}
}

func TestObstacleForcesDetour(t *testing.T) {
	g := freshGrid(t, 12, 12)
	// Block both L corners on both layers; route must use a Z (2 corners).
	g.BlockRect(geom.R(2, 8, 2, 8), grid.MaskBoth) // corner (2,8)
	g.BlockRect(geom.R(9, 3, 9, 3), grid.MaskBoth) // corner (9,3)
	res := runSearch(t, g, Point{2, 3}, Point{9, 8}, Config{})
	if res.Corners != 2 {
		t.Errorf("corners = %d, want 2 (Z-shape)", res.Corners)
	}
}

func TestWallForcesThreeCorners(t *testing.T) {
	g := freshGrid(t, 12, 12)
	// A vertical wall on both layers between the terminals, with a gap
	// above the bounding box: cols 5, rows 0..8 blocked.
	g.BlockRect(geom.R(5, 0, 5, 8), grid.MaskBoth)
	from, to := Point{2, 4}, Point{9, 4}
	// Within the terminal bounding box there is no path at all.
	if _, ok := Search(g, from, to, Config{
		ColBounds: geom.Iv(2, 9), RowBounds: geom.Iv(4, 4),
	}); ok {
		t.Fatal("path found through a solid wall")
	}
	// With the full grid available the router goes up and over.
	res := runSearch(t, g, from, to, Config{})
	if res.Corners != 2 {
		t.Errorf("corners = %d, want 2 (up-over-down)", res.Corners)
	}
	for _, p := range res.Paths {
		for _, pt := range p.Points {
			if pt.Col == 5 && pt.Row <= 8 {
				t.Errorf("path %v crosses the wall", p.Points)
			}
		}
	}
}

func TestLayerCrossingIsLegal(t *testing.T) {
	g := freshGrid(t, 10, 10)
	// An existing horizontal wire right between the terminals. A
	// vertical run may cross it (different layer), so an L still works.
	g.CommitHWire(5, geom.Iv(0, 9))
	res := runSearch(t, g, Point{2, 2}, Point{7, 8}, Config{})
	if res.Corners != 1 {
		t.Errorf("corners = %d, want 1: vertical runs cross H wires on the other layer", res.Corners)
	}
}

func TestViaBlocksBothLayers(t *testing.T) {
	g := freshGrid(t, 10, 10)
	// Vias sprinkled along row 5 block both layers at their points.
	for col := 0; col < 10; col++ {
		g.CommitVia(col, 5)
	}
	if _, ok := Search(g, Point{2, 2}, Point{7, 8}, Config{}); ok {
		t.Error("path crossed a solid via row")
	}
}

func TestOneCornerPerTrackRule(t *testing.T) {
	// Construct a situation where the only route needs two corners on
	// the same vertical track; strict mode must fail, relaxed mode is
	// allowed to find it. Layout (cols 0..4, rows 0..4):
	//   from (0,0), to (4,4).
	//   Row 0 blocked on H except cols 0..2 -> can travel right to col 2.
	//   All vertical tracks blocked except col 2.
	//   Row 4 blocked on H except cols 2..4.
	// The route must be (0,0)->(2,0)->(2,4)->(4,4): uses v-track 2 once —
	// that is fine. To force track re-use we instead block row 4 around
	// col 2 so the path must leave track 2, shift on an intermediate row,
	// and come back to track 2 — impossible without re-entering it.
	g := freshGrid(t, 5, 5)
	for col := 0; col < 5; col++ {
		if col != 2 {
			g.BlockV(col, geom.Iv(0, 4)) // only vertical track 2 usable
		}
	}
	g.BlockH(4, geom.Iv(2, 2)) // cannot corner onto row 4 at col 2
	g.BlockV(2, geom.Iv(3, 3)) // and track 2 is cut above row 2
	if _, ok := Search(g, Point{0, 0}, Point{4, 4}, Config{}); ok {
		t.Error("strict visit rule should make this unroutable")
	}
}

func TestMinCornerOverAlternatives(t *testing.T) {
	g := freshGrid(t, 20, 20)
	// Many obstacles but a clean L remains; the search must return 1.
	g.BlockRect(geom.R(5, 5, 8, 8), grid.MaskBoth)
	res := runSearch(t, g, Point{0, 0}, Point{19, 19}, Config{})
	if res.Corners != 1 {
		t.Errorf("corners = %d, want 1", res.Corners)
	}
}

func TestSearchWindowRestricts(t *testing.T) {
	g := freshGrid(t, 10, 10)
	g.BlockRect(geom.R(4, 0, 4, 6), grid.MaskBoth)
	from, to := Point{2, 3}, Point{7, 3}
	// Full grid: up-and-over works.
	if _, ok := Search(g, from, to, Config{}); !ok {
		t.Fatal("full-window search failed")
	}
	// Window clipped to rows 0..6: wall spans it fully; no path.
	if _, ok := Search(g, from, to, Config{
		ColBounds: geom.Iv(0, 9), RowBounds: geom.Iv(0, 6),
	}); ok {
		t.Error("window-restricted search escaped the window")
	}
	// Terminals outside the window: immediate failure.
	if _, ok := Search(g, from, to, Config{
		ColBounds: geom.Iv(0, 1), RowBounds: geom.Iv(0, 9),
	}); ok {
		t.Error("search accepted terminals outside the window")
	}
}

func TestIdenticalTerminals(t *testing.T) {
	g := freshGrid(t, 5, 5)
	res, ok := Search(g, Point{2, 2}, Point{2, 2}, Config{})
	if !ok || len(res.Paths) != 1 || len(res.Paths[0].Points) != 1 {
		t.Errorf("degenerate search = %+v, %v", res, ok)
	}
}

func TestBlockedSourceFails(t *testing.T) {
	g := freshGrid(t, 5, 5)
	g.BlockPoint(1, 1)
	if _, ok := Search(g, Point{1, 1}, Point{4, 4}, Config{}); ok {
		t.Error("search from a blocked terminal succeeded")
	}
}

func TestMaxCornersCap(t *testing.T) {
	// A staircase corridor: vertical track i is clear only on rows
	// [i, i+1], horizontal track j only on columns [j-1, j]. The single
	// route from (0,0) to (11,11) climbs 21 corners, using every track
	// exactly once (so the strict visit rule permits it).
	const n = 12
	g := freshGrid(t, n, n)
	for i := 0; i < n; i++ {
		g.BlockV(i, geom.Iv(0, i-1))
		g.BlockV(i, geom.Iv(i+2, n-1))
	}
	for j := 0; j < n; j++ {
		g.BlockH(j, geom.Iv(0, j-2))
		g.BlockH(j, geom.Iv(j+1, n-1))
	}
	from, to := Point{0, 0}, Point{n - 1, n - 1}
	res, ok := Search(g, from, to, Config{})
	if !ok {
		t.Fatal("staircase unroutable")
	}
	if res.Corners != 2*(n-1)-1 {
		t.Errorf("staircase corners = %d, want %d", res.Corners, 2*(n-1)-1)
	}
	// With a tight corner cap the same search must fail.
	if _, ok := Search(g, from, to, Config{MaxCorners: 4}); ok {
		t.Error("MaxCorners cap not enforced")
	}
}

func TestPathSelectionTreesRecorded(t *testing.T) {
	// The arena's slots stay 24 bytes: the relaxed
	// rung's largest searches hold tens of millions of them.
	if size := unsafe.Sizeof(node{}); size != 24 {
		t.Errorf("tree node is %d bytes, want 24", size)
	}
	g := freshGrid(t, 10, 10)
	res := runSearch(t, g, Point{2, 2}, Point{7, 6}, Config{})
	if len(res.Trees) != 2 {
		t.Fatalf("want 2 path selection trees (one per MBFS start), got %d", len(res.Trees))
	}
	if !res.Trees[0].Track().Vertical || res.Trees[1].Track().Vertical {
		t.Error("tree roots must be the source vertical then horizontal track")
	}
	if res.Trees[0].Corner() != (Point{2, 2}) {
		t.Errorf("root corner = %v, want the source terminal", res.Trees[0].Corner())
	}
}

func TestPathCornersGeometry(t *testing.T) {
	p := Path{Points: []Point{{0, 0}, {0, 5}, {3, 5}, {3, 9}, {8, 9}}}
	if got := p.Corners(); got != 3 {
		t.Errorf("Corners = %d, want 3", got)
	}
	cs := p.AppendCorners(nil)
	want := []Point{{0, 5}, {3, 5}, {3, 9}}
	if len(cs) != len(want) {
		t.Fatalf("AppendCorners = %v", cs)
	}
	for i := range want {
		if cs[i] != want[i] {
			t.Errorf("corner %d = %v, want %v", i, cs[i], want[i])
		}
	}
	// Collinear interior point is not a corner.
	q := Path{Points: []Point{{0, 0}, {0, 3}, {0, 7}}}
	if q.Corners() != 0 {
		t.Errorf("collinear path corners = %d", q.Corners())
	}
}

func TestPathValidate(t *testing.T) {
	good := Path{Points: []Point{{0, 0}, {0, 5}, {4, 5}}}
	if err := good.Validate(Point{0, 0}, Point{4, 5}); err != nil {
		t.Errorf("good path rejected: %v", err)
	}
	diag := Path{Points: []Point{{0, 0}, {3, 5}}}
	if err := diag.Validate(Point{0, 0}, Point{3, 5}); err == nil {
		t.Error("diagonal accepted")
	}
	wrongEnd := Path{Points: []Point{{0, 0}, {0, 5}}}
	if err := wrongEnd.Validate(Point{0, 0}, Point{1, 5}); err == nil {
		t.Error("wrong endpoint accepted")
	}
	if err := (Path{Points: []Point{{0, 0}}}).Validate(Point{0, 0}, Point{0, 0}); err == nil {
		t.Error("single-point path accepted")
	}
}

func TestTrackNaming(t *testing.T) {
	if (Track{Vertical: true, Index: 1}).String() != "v2" {
		t.Error("vertical naming wrong")
	}
	if (Track{Vertical: false, Index: 3}).String() != "h4" {
		t.Error("horizontal naming wrong")
	}
}

func TestBuildGraph(t *testing.T) {
	g := freshGrid(t, 4, 3)
	g.BlockPoint(1, 1)
	tg := BuildGraph(g, geom.Iv(0, 3), geom.Iv(0, 2))
	if len(tg.Edges) != 11 {
		t.Errorf("edges = %d, want 11 (12 intersections - 1 blocked)", len(tg.Edges))
	}
	if tg.HasEdge(1, 1) {
		t.Error("blocked intersection present")
	}
	if !tg.HasEdge(0, 0) || !tg.HasEdge(3, 2) {
		t.Error("free intersections missing")
	}
	if d := tg.Degree(Track{Vertical: true, Index: 1}); d != 2 {
		t.Errorf("degree(v2) = %d, want 2", d)
	}
	if d := tg.Degree(Track{Vertical: false, Index: 1}); d != 3 {
		t.Errorf("degree(h2) = %d, want 3", d)
	}
	if tg.AdjacencyList() == "" {
		t.Error("empty adjacency rendering")
	}
}

func TestRelaxedVisitFindsAtLeastAsManyPaths(t *testing.T) {
	g := freshGrid(t, 15, 15)
	g.BlockRect(geom.R(4, 4, 10, 4), grid.MaskBoth)
	g.BlockRect(geom.R(4, 10, 10, 10), grid.MaskBoth)
	from, to := Point{0, 7}, Point{14, 7}
	strict, ok1 := Search(g, from, to, Config{})
	relaxed, ok2 := Search(g, from, to, Config{RelaxedVisit: true})
	if !ok1 || !ok2 {
		t.Fatal("searches failed")
	}
	if relaxed.Corners > strict.Corners {
		t.Errorf("relaxed found worse corner count: %d vs %d", relaxed.Corners, strict.Corners)
	}
	if len(relaxed.Paths) < len(strict.Paths) {
		t.Errorf("relaxed found fewer paths: %d vs %d", len(relaxed.Paths), len(strict.Paths))
	}
}

func TestMaxPathsCap(t *testing.T) {
	// An empty grid between far corners yields exactly two 1-corner
	// paths; a cap of 1 must truncate the collection.
	g := freshGrid(t, 10, 10)
	res, ok := Search(g, Point{1, 1}, Point{8, 8}, Config{MaxPaths: 1})
	if !ok {
		t.Fatal("search failed")
	}
	if len(res.Paths) != 1 {
		t.Errorf("paths = %d, want capped at 1", len(res.Paths))
	}
	if res.Expanded <= 0 {
		t.Error("expanded counter not maintained")
	}
}

func TestStartsRestriction(t *testing.T) {
	g := freshGrid(t, 10, 10)
	from, to := Point{2, 2}, Point{7, 6}
	rv, okV := Search(g, from, to, Config{Starts: StartVertical})
	rh, okH := Search(g, from, to, Config{Starts: StartHorizontal})
	if !okV || !okH {
		t.Fatal("restricted searches failed")
	}
	if len(rv.Trees) != 1 || !rv.Trees[0].Track().Vertical {
		t.Error("vertical start built wrong tree set")
	}
	if len(rh.Trees) != 1 || rh.Trees[0].Track().Vertical {
		t.Error("horizontal start built wrong tree set")
	}
	// Each restricted search finds the L through its own first leg.
	if rv.Corners != 1 || rh.Corners != 1 {
		t.Errorf("corners = %d/%d, want 1/1", rv.Corners, rh.Corners)
	}
}
