// Package geom provides the rectilinear geometry kernel used by every
// routing package in this module: integer points, rectangles, closed
// intervals and bitsets with occupancy queries.
//
// All coordinates are integers. Routing in this module happens on grids
// of tracks, so geometry never needs floating point; keeping everything
// integral makes results exactly reproducible across platforms.
package geom

import "fmt"

// Point is a location in the plane, in layout database units.
type Point struct {
	X, Y int
}

// Pt is shorthand for Point{x, y}.
func Pt(x, y int) Point { return Point{x, y} }

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%d,%d)", p.X, p.Y) }

// Add returns the vector sum p+q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns the vector difference p-q.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Manhattan returns the rectilinear (L1) distance between p and q.
func (p Point) Manhattan(q Point) int {
	return Abs(p.X-q.X) + Abs(p.Y-q.Y)
}

// Abs returns the absolute value of x.
func Abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// Min returns the smaller of a and b.
func Min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Max returns the larger of a and b.
func Max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Clamp limits v to the closed range [lo, hi].
func Clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Rect is an axis-aligned rectangle. It is interpreted as the closed
// region [X0,X1] x [Y0,Y1]. A Rect is canonical when X0 <= X1 and
// Y0 <= Y1; constructors always return canonical rectangles.
type Rect struct {
	X0, Y0, X1, Y1 int
}

// R returns the canonical rectangle spanning the two corner points.
func R(x0, y0, x1, y1 int) Rect {
	if x0 > x1 {
		x0, x1 = x1, x0
	}
	if y0 > y1 {
		y0, y1 = y1, y0
	}
	return Rect{x0, y0, x1, y1}
}

// RectFromPoints returns the bounding rectangle of p and q.
func RectFromPoints(p, q Point) Rect { return R(p.X, p.Y, q.X, q.Y) }

// String implements fmt.Stringer.
func (r Rect) String() string {
	return fmt.Sprintf("[%d,%d]x[%d,%d]", r.X0, r.X1, r.Y0, r.Y1)
}

// Width returns the horizontal extent of r (inclusive span length in
// database units, i.e. X1-X0).
func (r Rect) Width() int { return r.X1 - r.X0 }

// Height returns the vertical extent of r (Y1-Y0).
func (r Rect) Height() int { return r.Y1 - r.Y0 }

// Area returns Width*Height. For degenerate (zero-thickness)
// rectangles the area is zero even though the closed region is not
// empty; callers that need point containment should use Contains.
func (r Rect) Area() int64 { return int64(r.Width()) * int64(r.Height()) }

// Contains reports whether the closed region of r contains p.
func (r Rect) Contains(p Point) bool {
	return p.X >= r.X0 && p.X <= r.X1 && p.Y >= r.Y0 && p.Y <= r.Y1
}

// ContainsRect reports whether the closed region of r contains all of s.
func (r Rect) ContainsRect(s Rect) bool {
	return s.X0 >= r.X0 && s.X1 <= r.X1 && s.Y0 >= r.Y0 && s.Y1 <= r.Y1
}

// Intersects reports whether the closed regions of r and s share at
// least one point.
func (r Rect) Intersects(s Rect) bool {
	return r.X0 <= s.X1 && s.X0 <= r.X1 && r.Y0 <= s.Y1 && s.Y0 <= r.Y1
}

// Intersect returns the common region of r and s. The second result is
// false when the rectangles do not intersect, in which case the first
// result is the zero Rect.
func (r Rect) Intersect(s Rect) (Rect, bool) {
	if !r.Intersects(s) {
		return Rect{}, false
	}
	return Rect{
		X0: Max(r.X0, s.X0),
		Y0: Max(r.Y0, s.Y0),
		X1: Min(r.X1, s.X1),
		Y1: Min(r.Y1, s.Y1),
	}, true
}

// Union returns the smallest rectangle containing both r and s.
func (r Rect) Union(s Rect) Rect {
	return Rect{
		X0: Min(r.X0, s.X0),
		Y0: Min(r.Y0, s.Y0),
		X1: Max(r.X1, s.X1),
		Y1: Max(r.Y1, s.Y1),
	}
}

// Center returns the midpoint of r (rounded toward X0/Y0).
func (r Rect) Center() Point {
	return Point{(r.X0 + r.X1) / 2, (r.Y0 + r.Y1) / 2}
}
