package core

// The oracle is the map-based shape that the flat one replaced. It
// holds one set of grid points per track and a map of vias, and on
// every walk re-collects and sorts the keys and regroups each track's
// points into maximal runs of consecutive points, which makes it slow
// but plainly right; shape_test.go requires every method of the flat
// shape to return what the oracle's does.

import (
	"sort"

	"overcell/internal/geom"
	"overcell/internal/grid"
	"overcell/internal/tig"
)

// refTrack is the set of grid points one track of a shape covers.
type refTrack map[int]bool

type refShape struct {
	h    map[int]refTrack // row -> columns on LayerH
	v    map[int]refTrack // col -> rows on LayerV
	vias map[tig.Point]bool
}

func newRefShape() *refShape {
	return &refShape{
		h:    make(map[int]refTrack),
		v:    make(map[int]refTrack),
		vias: make(map[tig.Point]bool),
	}
}

func refAdd(m map[int]refTrack, track int, iv geom.Interval) {
	if m[track] == nil {
		m[track] = refTrack{}
	}
	for x := iv.Lo; x <= iv.Hi; x++ {
		m[track][x] = true
	}
}

func (s *refShape) addH(row int, iv geom.Interval) { refAdd(s.h, row, iv) }

func (s *refShape) addV(col int, iv geom.Interval) { refAdd(s.v, col, iv) }

// Intervals returns the track's maximal runs of consecutive points in
// ascending order: points x and x+1 are in one run.
func (t refTrack) Intervals() []geom.Interval {
	pts := make([]int, 0, len(t))
	for x := range t {
		pts = append(pts, x)
	}
	sort.Ints(pts)
	var out []geom.Interval
	for _, x := range pts {
		if n := len(out); n > 0 && out[n-1].Hi+1 == x {
			out[n-1].Hi = x
		} else {
			out = append(out, geom.Iv(x, x))
		}
	}
	return out
}

// Overlaps reports whether the track covers a point of iv.
func (t refTrack) Overlaps(iv geom.Interval) bool {
	for x := iv.Lo; x <= iv.Hi; x++ {
		if t[x] {
			return true
		}
	}
	return false
}

func (s *refShape) addPath(p tig.Path, isTerminal func(tig.Point) bool) {
	pts := p.Points
	if len(pts) < 2 {
		return
	}
	for _, endIdx := range []int{0, len(pts) - 1} {
		e := pts[endIdx]
		if isTerminal(e) || s.vias[e] {
			continue
		}
		adj := pts[1]
		if endIdx != 0 {
			adj = pts[len(pts)-2]
		}
		arrivesH := adj.Row == e.Row
		onH := s.h[e.Row][e.Col]
		onV := s.v[e.Col][e.Row]
		if arrivesH && !onH && onV || !arrivesH && !onV && onH {
			s.vias[e] = true
		}
	}
	for i := 1; i < len(pts); i++ {
		a, b := pts[i-1], pts[i]
		if a.Row == b.Row {
			s.addH(a.Row, geom.Iv(geom.Min(a.Col, b.Col), geom.Max(a.Col, b.Col)))
		} else {
			s.addV(a.Col, geom.Iv(geom.Min(a.Row, b.Row), geom.Max(a.Row, b.Row)))
		}
	}
	for _, c := range p.AppendCorners(make([]tig.Point, 0, len(pts)-2)) {
		s.vias[c] = true
	}
}

func refSortedTracks(m map[int]refTrack) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

func (s *refShape) sortedVias() []tig.Point {
	out := make([]tig.Point, 0, len(s.vias))
	for p := range s.vias {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return refLessPoint(out[i], out[j]) })
	return out
}

func (s *refShape) commit(g *grid.Grid) {
	for _, row := range refSortedTracks(s.h) {
		for _, iv := range s.h[row].Intervals() {
			g.CommitHWire(row, iv)
		}
	}
	for _, col := range refSortedTracks(s.v) {
		for _, iv := range s.v[col].Intervals() {
			g.CommitVWire(col, iv)
		}
	}
	for _, p := range s.sortedVias() {
		g.CommitVia(p.Col, p.Row)
	}
}

func (s *refShape) lift(g *grid.Grid) {
	for _, row := range refSortedTracks(s.h) {
		for _, iv := range s.h[row].Intervals() {
			g.LiftHWire(row, iv)
		}
	}
	for _, col := range refSortedTracks(s.v) {
		for _, iv := range s.v[col].Intervals() {
			g.LiftVWire(col, iv)
		}
	}
	for _, p := range s.sortedVias() {
		g.LiftVia(p.Col, p.Row)
	}
}

func (s *refShape) wireLength(g *grid.Grid) int {
	total := 0
	for _, row := range refSortedTracks(s.h) {
		for _, iv := range s.h[row].Intervals() {
			total += g.SpanLengthX(iv.Lo, iv.Hi)
		}
	}
	for _, col := range refSortedTracks(s.v) {
		for _, iv := range s.v[col].Intervals() {
			total += g.SpanLengthY(iv.Lo, iv.Hi)
		}
	}
	return total
}

func (s *refShape) nearestPoint(p tig.Point) (tig.Point, int, bool) {
	best := tig.Point{}
	bestD := -1
	consider := func(q tig.Point, d int) {
		if bestD < 0 || d < bestD || (d == bestD && refLessPoint(q, best)) {
			best, bestD = q, d
		}
	}
	for _, row := range refSortedTracks(s.h) {
		for _, iv := range s.h[row].Intervals() {
			col := geom.Clamp(p.Col, iv.Lo, iv.Hi)
			q := tig.Point{Col: col, Row: row}
			consider(q, geom.Abs(p.Col-col)+geom.Abs(p.Row-row))
		}
	}
	for _, col := range refSortedTracks(s.v) {
		for _, iv := range s.v[col].Intervals() {
			row := geom.Clamp(p.Row, iv.Lo, iv.Hi)
			q := tig.Point{Col: col, Row: row}
			consider(q, geom.Abs(p.Col-col)+geom.Abs(p.Row-row))
		}
	}
	for _, q := range s.sortedVias() {
		consider(q, geom.Abs(p.Col-q.Col)+geom.Abs(p.Row-q.Row))
	}
	if bestD < 0 {
		return tig.Point{}, 0, false
	}
	return best, bestD, true
}

func (s *refShape) intersects(cols, rows geom.Interval) bool {
	for _, row := range refSortedTracks(s.h) {
		if !rows.Contains(row) {
			continue
		}
		if s.h[row].Overlaps(cols) {
			return true
		}
	}
	for _, col := range refSortedTracks(s.v) {
		if !cols.Contains(col) {
			continue
		}
		if s.v[col].Overlaps(rows) {
			return true
		}
	}
	for _, p := range s.sortedVias() {
		if cols.Contains(p.Col) && rows.Contains(p.Row) {
			return true
		}
	}
	return false
}

func (s *refShape) containsPoint(p tig.Point) bool {
	if s.vias[p] {
		return true
	}
	return s.h[p.Row][p.Col] || s.v[p.Col][p.Row]
}

func (s *refShape) segments() []Segment {
	var out []Segment
	for _, row := range refSortedTracks(s.h) {
		for _, iv := range s.h[row].Intervals() {
			out = append(out, Segment{Horizontal: true, Track: row, Lo: iv.Lo, Hi: iv.Hi})
		}
	}
	for _, col := range refSortedTracks(s.v) {
		for _, iv := range s.v[col].Intervals() {
			out = append(out, Segment{Horizontal: false, Track: col, Lo: iv.Lo, Hi: iv.Hi})
		}
	}
	return out
}

func (s *refShape) viaPoints() []tig.Point {
	return s.sortedVias()
}

func refLessPoint(a, b tig.Point) bool {
	if a.Col != b.Col {
		return a.Col < b.Col
	}
	return a.Row < b.Row
}

func (s *refShape) overlapLengthH(g *grid.Grid, row int, iv geom.Interval) int {
	total := 0
	for _, own := range s.h[row].Intervals() {
		x := own.Intersect(iv)
		if !x.Empty() {
			total += g.SpanLengthX(x.Lo, x.Hi)
		}
	}
	return total
}

func (s *refShape) overlapLengthV(g *grid.Grid, col int, iv geom.Interval) int {
	total := 0
	for _, own := range s.v[col].Intervals() {
		x := own.Intersect(iv)
		if !x.Empty() {
			total += g.SpanLengthY(x.Lo, x.Hi)
		}
	}
	return total
}
