package geom

import (
	"testing"
	"testing/quick"
)

func TestPointArithmetic(t *testing.T) {
	p := Pt(3, -2)
	q := Pt(-1, 5)
	if got := p.Add(q); got != Pt(2, 3) {
		t.Errorf("Add = %v, want (2,3)", got)
	}
	if got := p.Sub(q); got != Pt(4, -7) {
		t.Errorf("Sub = %v, want (4,-7)", got)
	}
	if got := p.Manhattan(q); got != 11 {
		t.Errorf("Manhattan = %d, want 11", got)
	}
	if got := p.Manhattan(p); got != 0 {
		t.Errorf("Manhattan self = %d, want 0", got)
	}
}

func TestManhattanSymmetric(t *testing.T) {
	f := func(a, b, c, d int16) bool {
		p := Pt(int(a), int(b))
		q := Pt(int(c), int(d))
		return p.Manhattan(q) == q.Manhattan(p) && p.Manhattan(q) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestManhattanTriangle(t *testing.T) {
	f := func(a, b, c, d, e, g int16) bool {
		p := Pt(int(a), int(b))
		q := Pt(int(c), int(d))
		r := Pt(int(e), int(g))
		return p.Manhattan(r) <= p.Manhattan(q)+q.Manhattan(r)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMinMaxClampAbs(t *testing.T) {
	if Min(2, 3) != 2 || Min(3, 2) != 2 {
		t.Error("Min broken")
	}
	if Max(2, 3) != 3 || Max(3, 2) != 3 {
		t.Error("Max broken")
	}
	if Abs(-5) != 5 || Abs(5) != 5 || Abs(0) != 0 {
		t.Error("Abs broken")
	}
	if Clamp(5, 0, 3) != 3 || Clamp(-1, 0, 3) != 0 || Clamp(2, 0, 3) != 2 {
		t.Error("Clamp broken")
	}
}

func TestRectCanonical(t *testing.T) {
	r := R(5, 7, 1, 2)
	want := Rect{1, 2, 5, 7}
	if r != want {
		t.Errorf("R canonicalisation = %v, want %v", r, want)
	}
	if r.Width() != 4 || r.Height() != 5 {
		t.Errorf("Width/Height = %d/%d, want 4/5", r.Width(), r.Height())
	}
	if r.Area() != 20 {
		t.Errorf("Area = %d, want 20", r.Area())
	}
}

func TestRectContains(t *testing.T) {
	r := R(0, 0, 10, 5)
	cases := []struct {
		p    Point
		want bool
	}{
		{Pt(0, 0), true},
		{Pt(10, 5), true},
		{Pt(5, 3), true},
		{Pt(11, 3), false},
		{Pt(5, 6), false},
		{Pt(-1, 0), false},
	}
	for _, c := range cases {
		if got := r.Contains(c.p); got != c.want {
			t.Errorf("Contains(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestRectIntersect(t *testing.T) {
	a := R(0, 0, 10, 10)
	b := R(5, 5, 15, 15)
	got, ok := a.Intersect(b)
	if !ok || got != R(5, 5, 10, 10) {
		t.Errorf("Intersect = %v,%v; want [5,10]x[5,10],true", got, ok)
	}
	c := R(11, 11, 20, 20)
	if _, ok := a.Intersect(c); ok {
		t.Error("disjoint rects reported as intersecting")
	}
	// Touching edges share boundary points, so they intersect.
	d := R(10, 0, 20, 10)
	if iv, ok := a.Intersect(d); !ok || iv.Width() != 0 {
		t.Errorf("edge-touching Intersect = %v,%v", iv, ok)
	}
}

func TestRectUnionContainsBoth(t *testing.T) {
	f := func(a, b, c, d, e, g, h, i int8) bool {
		r1 := R(int(a), int(b), int(c), int(d))
		r2 := R(int(e), int(g), int(h), int(i))
		u := r1.Union(r2)
		return u.ContainsRect(r1) && u.ContainsRect(r2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRectIntersectSymmetric(t *testing.T) {
	f := func(a, b, c, d, e, g, h, i int8) bool {
		r1 := R(int(a), int(b), int(c), int(d))
		r2 := R(int(e), int(g), int(h), int(i))
		v1, ok1 := r1.Intersect(r2)
		v2, ok2 := r2.Intersect(r1)
		return ok1 == ok2 && v1 == v2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRectFromPointsAndCenter(t *testing.T) {
	r := RectFromPoints(Pt(9, 1), Pt(3, 7))
	if r != R(3, 1, 9, 7) {
		t.Errorf("RectFromPoints = %v", r)
	}
	if c := r.Center(); c != Pt(6, 4) {
		t.Errorf("Center = %v", c)
	}
}
