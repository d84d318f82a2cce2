package core

import (
	"math/rand"
	"slices"
	"testing"

	"overcell/internal/geom"
	"overcell/internal/grid"
	"overcell/internal/tig"
)

// shapeCase is a grid and a sequence of paths to fold into one net's
// shape, with the points the net treats as terminals.
type shapeCase struct {
	nx, ny int
	paths  []tig.Path
	terms  map[tig.Point]bool
}

// decodeShapeCase reads a shape case from bytes. The first two bytes
// size the grid, 2 to 12 tracks each way. Each path then takes one
// header byte (2 to 7 points, the axis of the first segment, and
// whether its first and last points are terminals), two bytes for its
// first point and one byte per further point: the low seven bits give
// the new coordinate along the segment's axis, and the high bit keeps
// the previous segment's axis instead of turning. Paths may so hold
// zero-length segments and straight interior points, which the router
// never produces; the two shapes must agree on them all the same.
func decodeShapeCase(data []byte) shapeCase {
	c := shapeCase{nx: 2, ny: 2, terms: map[tig.Point]bool{}}
	if len(data) >= 2 {
		c.nx, c.ny = 2+int(data[0])%11, 2+int(data[1])%11
		data = data[2:]
	}
	for len(data) >= 3 {
		hdr := data[0]
		n := 2 + int(hdr)%6
		horizontal := hdr&0x08 != 0
		pts := []tig.Point{{Col: int(data[1]) % c.nx, Row: int(data[2]) % c.ny}}
		data = data[3:]
		for len(pts) < n && len(data) > 0 {
			b := data[0]
			data = data[1:]
			if len(pts) > 1 && b&0x80 == 0 {
				horizontal = !horizontal
			}
			p := pts[len(pts)-1]
			if horizontal {
				p.Col = int(b&0x7f) % c.nx
			} else {
				p.Row = int(b&0x7f) % c.ny
			}
			pts = append(pts, p)
		}
		if hdr&0x10 != 0 {
			c.terms[pts[0]] = true
		}
		if hdr&0x20 != 0 {
			c.terms[pts[len(pts)-1]] = true
		}
		c.paths = append(c.paths, tig.Path{Points: pts})
	}
	return c
}

// shapeGrid returns an nx-by-ny grid with uneven track pitches, so
// that lengths in layout units differ from lengths in tracks.
func shapeGrid(t *testing.T, nx, ny int) *grid.Grid {
	t.Helper()
	xs, ys := make([]int, nx), make([]int, ny)
	for i := range xs {
		xs[i] = 10*i + i*i%7
	}
	for j := range ys {
		ys[j] = 10*j + j*j*j%5
	}
	g, err := grid.New(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// checkShapeAgainstOracle folds the case's paths into a flat shape and
// into the map-based oracle, and after every path carves the flat shape
// into a NetRoute and compares each method's answer, and occupies on
// the carved route, on every grid point, window and track span of the
// grid. At the end it commits, then lifts, the last carved route and
// the oracle on their own copies of a grid with obstacles and compares
// the occupancy point by point.
func checkShapeAgainstOracle(t *testing.T, c shapeCase) {
	t.Helper()
	g := shapeGrid(t, c.nx, c.ny)
	isTerm := func(p tig.Point) bool { return c.terms[p] }
	flat, ref := &shape{}, newRefShape()
	var segs []Segment
	var vias []tig.Point
	var nr NetRoute
	for step, p := range c.paths {
		flat.addPath(p, isTerm)
		ref.addPath(p, isTerm)
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("after path %d %v: "+format, append([]any{step, p.Points}, args...)...)
		}
		checkShapeInvariants(t, flat)
		nr.Segments, nr.Vias = flat.carve(&segs, &vias)
		if got, want := nr.Segments, ref.segments(); !slices.Equal(got, want) {
			fail("segments %v, oracle %v", got, want)
		}
		if got, want := nr.Vias, ref.viaPoints(); !slices.Equal(got, want) {
			fail("viaPoints %v, oracle %v", got, want)
		}
		if got, want := flat.wireLength(g), ref.wireLength(g); got != want {
			fail("wireLength %d, oracle %d", got, want)
		}
		for col := -1; col <= c.nx; col++ {
			for row := -1; row <= c.ny; row++ {
				q := tig.Point{Col: col, Row: row}
				gp, gd, gok := flat.nearestPoint(q)
				wp, wd, wok := ref.nearestPoint(q)
				if gp != wp || gd != wd || gok != wok {
					fail("nearestPoint(%v) = %v %d %v, oracle %v %d %v", q, gp, gd, gok, wp, wd, wok)
				}
				if got, want := flat.containsPoint(q), ref.containsPoint(q); got != want {
					fail("containsPoint(%v) = %v, oracle %v", q, got, want)
				}
				// Windows of one to three tracks each way anchored at q,
				// and an empty one.
				w := (col + row + 3) % 3
				for _, win := range [][2]geom.Interval{
					{geom.Iv(col, col+w), geom.Iv(row, row+2-w)},
					{geom.Iv(col, col-1), geom.Iv(row, row)},
				} {
					if got, want := occupies(&nr, win[0], win[1]), ref.intersects(win[0], win[1]); got != want {
						fail("intersects(%v, %v) = %v, oracle %v", win[0], win[1], got, want)
					}
				}
			}
		}
		for lo := 0; lo < geom.Max(c.nx, c.ny); lo++ {
			for hi := lo - 1; hi < geom.Max(c.nx, c.ny); hi++ {
				iv := geom.Iv(lo, hi)
				for row := 0; row < c.ny && hi < c.nx; row++ {
					if got, want := flat.overlapLengthH(g, row, iv), ref.overlapLengthH(g, row, iv); got != want {
						fail("overlapLengthH(%d, %v) = %d, oracle %d", row, iv, got, want)
					}
				}
				for col := 0; col < c.nx && hi < c.ny; col++ {
					if got, want := flat.overlapLengthV(g, col, iv), ref.overlapLengthV(g, col, iv); got != want {
						fail("overlapLengthV(%d, %v) = %d, oracle %d", col, iv, got, want)
					}
				}
			}
		}
	}

	gotG, wantG := shapeGrid(t, c.nx, c.ny), shapeGrid(t, c.nx, c.ny)
	for _, gg := range []*grid.Grid{gotG, wantG} {
		gg.BlockH(c.ny/2, geom.Iv(0, c.nx/2))
		gg.BlockV(c.nx/2, geom.Iv(c.ny/2, c.ny-1))
		gg.BlockPoint(c.nx-1, 0)
	}
	commitRoute(gotG, &nr)
	ref.commit(wantG)
	compareOccupancy(t, "commit", gotG, wantG)
	liftRoute(gotG, &nr)
	ref.lift(wantG)
	compareOccupancy(t, "lift", gotG, wantG)
}

// checkShapeInvariants fails unless each layer's spans are sorted by
// track and lo with disjoint, non-adjacent spans per track, and the
// vias are sorted and distinct.
func checkShapeInvariants(t *testing.T, s *shape) {
	t.Helper()
	for _, layer := range [][]span{s.h, s.v} {
		for i, sp := range layer {
			if sp.lo > sp.hi {
				t.Fatalf("empty span %v", sp)
			}
			if i > 0 {
				prev := layer[i-1]
				if sp.track < prev.track || sp.track == prev.track && sp.lo <= prev.hi+1 {
					t.Fatalf("spans %v then %v: not sorted and merged", prev, sp)
				}
			}
		}
	}
	for i := 1; i < len(s.vias); i++ {
		if comparePoints(s.vias[i-1], s.vias[i]) >= 0 {
			t.Fatalf("vias %v then %v: not sorted and distinct", s.vias[i-1], s.vias[i])
		}
	}
}

// compareOccupancy compares the blockage and the wire overlay of two
// grids on both layers at every grid point.
func compareOccupancy(t *testing.T, what string, got, want *grid.Grid) {
	t.Helper()
	for col := 0; col < got.NX(); col++ {
		for row := 0; row < got.NY(); row++ {
			c, r := geom.Iv(col, col), geom.Iv(row, row)
			if got.HFree(row, c) != want.HFree(row, c) || got.VFree(col, r) != want.VFree(col, r) ||
				got.HWireCountIn(c, r) != want.HWireCountIn(c, r) ||
				got.VWireCountIn(c, r) != want.VWireCountIn(c, r) {
				t.Fatalf("after %s: occupancy at (c%d,r%d) differs from the oracle's", what, col, row)
			}
		}
	}
}

// TestShapeMatchesOracle holds the flat shape to the map-based oracle
// over random path sequences, method by method.
func TestShapeMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 400; i++ {
		data := make([]byte, 2+rng.Intn(60))
		for j := range data {
			data[j] = byte(rng.Intn(256))
		}
		checkShapeAgainstOracle(t, decodeShapeCase(data))
	}
}

// FuzzShape feeds fuzzer bytes, decoded as decodeShapeCase describes,
// into the flat shape and the oracle and compares every method. Run
// deep fuzzing with:
//
//	go test -fuzz=FuzzShape ./internal/core
func FuzzShape(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{9, 9, 0x03, 1, 1, 6, 5, 2, 0x3a, 6, 1, 0x90, 3})
	f.Add([]byte{4, 4, 0x1d, 0, 0, 0x83, 2, 0x81, 0x2c, 3, 3, 3, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkShapeAgainstOracle(t, decodeShapeCase(data))
	})
}
