// Package steiner provides rectilinear spanning and Steiner tree
// construction over point sets: a Prim minimum spanning tree, and the
// paper's Steiner heuristic (Katsadas & Chen, DAC 1990, section 3.3) —
// a modified Prim that may attach each new terminal to a Steiner point
// of the partially built tree rather than to a terminal.
//
// This package is purely geometric (no obstacles); the obstacle-aware
// embedding of the same idea lives in internal/core, which re-routes
// each attachment with the level B path search. No routing flow imports
// this package: it is timed on its own, by bench/'s Steiner replay
// (steiner.rst_us) and by the root package's BenchmarkSteinerLibrary.
package steiner

import (
	"overcell/internal/geom"
	"overcell/internal/robust"
)

// Edge is one connection of a spanning tree, between two of the input
// terminals.
type Edge struct {
	From, To geom.Point
}

// Length returns the rectilinear length of the edge.
func (e Edge) Length() int { return e.From.Manhattan(e.To) }

// MST computes a rectilinear minimum spanning tree over the points
// with Prim's algorithm (O(n²), exact). It returns the edges and the
// total length. Fewer than two points yield no edges.
func MST(pts []geom.Point) ([]Edge, int) {
	edges, total, _ := MSTBudgeted(pts, nil)
	return edges, total
}

// MSTBudgeted is MST with a work budget: each Prim step charges the
// O(n) candidate scan it performs. On budget exhaustion it returns the
// partial tree built so far together with the typed error. A nil
// budget is unbounded.
func MSTBudgeted(pts []geom.Point, b *robust.Budget) ([]Edge, int, error) {
	if len(pts) < 2 {
		return nil, 0, nil
	}
	if err := b.Err(); err != nil {
		return nil, 0, err
	}
	const inf = int(^uint(0) >> 1)
	n := len(pts)
	inTree := make([]bool, n)
	dist := make([]int, n)
	from := make([]int, n)
	for i := range dist {
		dist[i] = inf
	}
	inTree[0] = true
	for j := 1; j < n; j++ {
		dist[j] = pts[0].Manhattan(pts[j])
		from[j] = 0
	}
	var edges []Edge
	total := 0
	for added := 1; added < n; added++ {
		if err := b.Charge(n); err != nil {
			return edges, total, err
		}
		best, bestD := -1, inf
		for j := 0; j < n; j++ {
			if !inTree[j] && dist[j] < bestD {
				best, bestD = j, dist[j]
			}
		}
		inTree[best] = true
		edges = append(edges, Edge{From: pts[from[best]], To: pts[best]})
		total += bestD
		for j := 0; j < n; j++ {
			if !inTree[j] {
				if d := pts[best].Manhattan(pts[j]); d < dist[j] {
					dist[j] = d
					from[j] = best
				}
			}
		}
	}
	return edges, total, nil
}

// Seg is one axis-parallel wire segment of a realised tree.
type Seg struct {
	A, B geom.Point
}

// Length returns the segment's length.
func (s Seg) Length() int { return s.A.Manhattan(s.B) }

// Horizontal reports whether the segment runs along a row.
func (s Seg) Horizontal() bool { return s.A.Y == s.B.Y }

// nearestOn returns the point of s closest to p under the rectilinear
// metric, and the distance.
func (s Seg) nearestOn(p geom.Point) (geom.Point, int) {
	var q geom.Point
	if s.Horizontal() {
		q = geom.Pt(geom.Clamp(p.X, geom.Min(s.A.X, s.B.X), geom.Max(s.A.X, s.B.X)), s.A.Y)
	} else {
		q = geom.Pt(s.A.X, geom.Clamp(p.Y, geom.Min(s.A.Y, s.B.Y), geom.Max(s.A.Y, s.B.Y)))
	}
	return q, p.Manhattan(q)
}

// Tree is a realised rectilinear tree: terminals, the axis-parallel
// segments connecting them (L-shaped edge embeddings), and the total
// length.
type Tree struct {
	Terminals []geom.Point
	Segments  []Seg
	// Length is the sum of attachment distances, the standard cost of
	// the Prim-with-Steiner-points heuristic.
	Length int
}

// RST builds a rectilinear Steiner tree approximation with the paper's
// modified Prim: the tree grows by attaching, at each step, the
// unconnected terminal with minimum distance to the whole component —
// terminals and Steiner points alike — at the component point it is
// closest to. Each attachment is embedded as an L whose corner sits at
// (terminal.X, attach.Y).
func RST(pts []geom.Point) *Tree {
	t, _ := RSTBudgeted(pts, nil)
	return t
}

// RSTBudgeted is RST with a work budget: each attachment step charges
// the candidate scan (remaining terminals × component segments) it
// performs. On budget exhaustion it returns the partial tree built so
// far together with the typed error. A nil budget is unbounded.
func RSTBudgeted(pts []geom.Point, b *robust.Budget) (*Tree, error) {
	t := &Tree{Terminals: append([]geom.Point(nil), pts...)}
	if len(pts) < 2 {
		return t, nil
	}
	if err := b.Err(); err != nil {
		return t, err
	}
	left := append([]geom.Point(nil), pts[1:]...)
	seed := pts[0]
	for len(left) > 0 {
		scan := len(left) * (1 + len(t.Segments))
		if err := b.Charge(scan); err != nil {
			return t, err
		}
		bestIdx, bestD := -1, 0
		var bestQ geom.Point
		for i, p := range left {
			q, d := t.nearest(p, seed)
			if bestIdx < 0 || d < bestD {
				bestIdx, bestD, bestQ = i, d, q
			}
		}
		p := left[bestIdx]
		left = append(left[:bestIdx], left[bestIdx+1:]...)
		t.attach(p, bestQ)
		t.Length += bestD
	}
	return t, nil
}

// nearest returns the component point closest to p: the seed when the
// tree has no segments yet, otherwise the nearest point on any
// segment.
func (t *Tree) nearest(p, seed geom.Point) (geom.Point, int) {
	if len(t.Segments) == 0 {
		return seed, p.Manhattan(seed)
	}
	best := geom.Point{}
	bestD := -1
	for _, s := range t.Segments {
		q, d := s.nearestOn(p)
		if bestD < 0 || d < bestD {
			best, bestD = q, d
		}
	}
	return best, bestD
}

// attach embeds the connection p -> q as up to two axis-parallel
// segments with the corner at (p.X, q.Y).
func (t *Tree) attach(p, q geom.Point) {
	corner := geom.Pt(p.X, q.Y)
	if corner != p {
		t.Segments = append(t.Segments, Seg{A: p, B: corner})
	}
	if corner != q {
		t.Segments = append(t.Segments, Seg{A: corner, B: q})
	}
}

// HPWL returns the half-perimeter wire length bound of the point set.
func HPWL(pts []geom.Point) int {
	if len(pts) == 0 {
		return 0
	}
	r := geom.RectFromPoints(pts[0], pts[0])
	for _, p := range pts[1:] {
		r = r.Union(geom.RectFromPoints(p, p))
	}
	return r.Width() + r.Height()
}
