package maze

import (
	"math/rand"
	"testing"

	"overcell/internal/geom"
	"overcell/internal/grid"
	"overcell/internal/tig"
)

func mk(t *testing.T, n int) *grid.Grid {
	t.Helper()
	g, err := grid.Uniform(n, n, 1)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func full(g *grid.Grid) (geom.Interval, geom.Interval) {
	return geom.Iv(0, g.NX()-1), geom.Iv(0, g.NY()-1)
}

func TestStraightRoute(t *testing.T) {
	g := mk(t, 10)
	c, r := full(g)
	res, ok := Route(g, tig.Point{Col: 2, Row: 3}, tig.Point{Col: 8, Row: 3}, c, r)
	if !ok {
		t.Fatal("route failed")
	}
	if err := res.Path.Validate(tig.Point{Col: 2, Row: 3}, tig.Point{Col: 8, Row: 3}); err != nil {
		t.Fatal(err)
	}
	if res.Path.Corners() != 0 {
		t.Errorf("corners = %d, want 0", res.Path.Corners())
	}
}

func TestLRoute(t *testing.T) {
	g := mk(t, 10)
	c, r := full(g)
	from, to := tig.Point{Col: 1, Row: 1}, tig.Point{Col: 7, Row: 6}
	res, ok := Route(g, from, to, c, r)
	if !ok {
		t.Fatal("route failed")
	}
	if err := res.Path.Validate(from, to); err != nil {
		t.Fatal(err)
	}
	if res.Path.Corners() != 1 {
		t.Errorf("corners = %d, want 1", res.Path.Corners())
	}
}

func TestObstacleDetour(t *testing.T) {
	g := mk(t, 12)
	g.BlockRect(geom.R(5, 0, 5, 9), grid.MaskBoth)
	c, r := full(g)
	from, to := tig.Point{Col: 2, Row: 4}, tig.Point{Col: 9, Row: 4}
	res, ok := Route(g, from, to, c, r)
	if !ok {
		t.Fatal("route failed")
	}
	for _, p := range res.Path.Points {
		if p.Col == 5 && p.Row <= 9 {
			t.Errorf("path crosses wall at %v", p)
		}
	}
}

func TestLayerDisciplineRespected(t *testing.T) {
	g := mk(t, 10)
	// H-layer fully blocked on row 5 except where a V run crosses.
	g.BlockH(5, geom.Iv(0, 9))
	c, r := full(g)
	from, to := tig.Point{Col: 3, Row: 2}, tig.Point{Col: 3, Row: 8}
	res, ok := Route(g, from, to, c, r)
	if !ok {
		t.Fatal("vertical crossing over H blockage failed")
	}
	if res.Path.Corners() != 0 {
		t.Errorf("corners = %d, want 0", res.Path.Corners())
	}
	// But a horizontal route along row 5 must fail.
	if _, ok := Route(g, tig.Point{Col: 0, Row: 5}, tig.Point{Col: 9, Row: 5}, c, r); ok {
		t.Error("routed along a blocked H track")
	}
}

func TestViaNeedsBothLayers(t *testing.T) {
	g := mk(t, 8)
	// Every point of column 4 carries an H-layer blockage except the
	// endpoints' rows; a route along column 4 needs no via mid-way, so
	// it should succeed...
	from, to := tig.Point{Col: 4, Row: 0}, tig.Point{Col: 4, Row: 7}
	g.BlockH(3, geom.Iv(4, 4))
	c, r := full(g)
	if _, ok := Route(g, from, to, c, r); !ok {
		t.Fatal("V run blocked by single-point H blockage")
	}
	// ...but turning a corner at (4,3) must be impossible.
	res, ok := Route(g, tig.Point{Col: 0, Row: 3}, tig.Point{Col: 4, Row: 0}, c, r)
	if !ok {
		t.Fatal("corner-avoiding route failed")
	}
	for _, p := range res.Path.AppendCorners(nil) {
		if p == (tig.Point{Col: 4, Row: 3}) {
			t.Error("via placed on a half-blocked point")
		}
	}
}

func TestUnroutable(t *testing.T) {
	g := mk(t, 8)
	g.BlockRect(geom.R(0, 3, 7, 4), grid.MaskBoth)
	c, r := full(g)
	if _, ok := Route(g, tig.Point{Col: 1, Row: 1}, tig.Point{Col: 6, Row: 6}, c, r); ok {
		t.Error("route crossed a full wall")
	}
}

func TestWindowRestriction(t *testing.T) {
	g := mk(t, 10)
	g.BlockRect(geom.R(4, 0, 4, 6), grid.MaskBoth)
	from, to := tig.Point{Col: 2, Row: 3}, tig.Point{Col: 7, Row: 3}
	if _, ok := Route(g, from, to, geom.Iv(0, 9), geom.Iv(0, 6)); ok {
		t.Error("escaped the window")
	}
	if _, ok := Route(g, from, to, geom.Iv(0, 9), geom.Iv(0, 9)); !ok {
		t.Error("full-window route failed")
	}
	if _, ok := Route(g, from, to, geom.Iv(0, 1), geom.Iv(0, 9)); ok {
		t.Error("accepted terminals outside window")
	}
}

func TestDegenerate(t *testing.T) {
	g := mk(t, 5)
	c, r := full(g)
	res, ok := Route(g, tig.Point{Col: 2, Row: 2}, tig.Point{Col: 2, Row: 2}, c, r)
	if !ok || len(res.Path.Points) != 1 {
		t.Error("self-route wrong")
	}
	g.BlockPoint(1, 1)
	if _, ok := Route(g, tig.Point{Col: 1, Row: 1}, tig.Point{Col: 3, Row: 3}, c, r); ok {
		t.Error("routed from blocked source")
	}
}

// TestAgainstManhattan checks optimality on empty grids: the maze
// route length must equal the Manhattan distance.
func TestAgainstManhattan(t *testing.T) {
	g := mk(t, 20)
	c, r := full(g)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 50; i++ {
		from := tig.Point{Col: rng.Intn(20), Row: rng.Intn(20)}
		to := tig.Point{Col: rng.Intn(20), Row: rng.Intn(20)}
		res, ok := Route(g, from, to, c, r)
		if !ok {
			t.Fatalf("empty-grid route %v->%v failed", from, to)
		}
		length := 0
		for k := 1; k < len(res.Path.Points); k++ {
			a, b := res.Path.Points[k-1], res.Path.Points[k]
			length += geom.Abs(a.Col-b.Col) + geom.Abs(a.Row-b.Row)
		}
		want := geom.Abs(from.Col-to.Col) + geom.Abs(from.Row-to.Row)
		if length != want {
			t.Errorf("%v->%v length %d, want %d", from, to, length, want)
		}
	}
}
