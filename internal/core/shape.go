package core

import (
	"cmp"
	"slices"

	"overcell/internal/geom"
	"overcell/internal/grid"
	"overcell/internal/tig"
)

// span is one maximal wire interval of a shape: columns lo..hi of row
// track on LayerH, or rows lo..hi of column track on LayerV.
type span struct {
	track, lo, hi int
}

// shape is the accumulated metal of one net in track index space:
// horizontal wire spans per row, vertical spans per column, and via
// points. Each layer is one slice of spans sorted by track, then lo.
// addSpan merges a new span with every span of its track that it
// overlaps or touches ([1,2] and [3,4] merge to [1,4]), so the spans
// of one track are disjoint and non-adjacent: overlapping
// re-routes of the same net are deduplicated, and wire length
// accounting is exact. Vias are one slice sorted by (Col, Row). Every
// method walks the slices in that order, so commit order, cost
// decisions and reported geometry are the same on every run, and none
// sorts or copies.
type shape struct {
	h    []span      // LayerH: track is the row, lo..hi columns
	v    []span      // LayerV: track is the column, lo..hi rows
	vias []tig.Point // sorted by comparePoints, distinct
}

// searchSpans returns the index of the first span that lies on a
// track after track, or on track and ends at or after x. The spans of
// one track are disjoint and sorted by lo, so their ends ascend too
// and the search is a plain bisection.
func searchSpans(spans []span, track, x int) int {
	lo, hi := 0, len(spans)
	for lo < hi {
		m := lo + (hi-lo)/2
		if s := spans[m]; s.track > track || s.track == track && s.hi >= x {
			hi = m
		} else {
			lo = m + 1
		}
	}
	return lo
}

// addSpan inserts iv on track, merging it with every span of that
// track it overlaps or touches: [1,2] and [3,4] merge to [1,4]. An
// empty iv is ignored.
func addSpan(spans []span, track int, iv geom.Interval) []span {
	if iv.Empty() {
		return spans
	}
	first := searchSpans(spans, track, iv.Lo-1)
	last := first
	lo, hi := iv.Lo, iv.Hi
	for last < len(spans) && spans[last].track == track && spans[last].lo <= iv.Hi+1 {
		lo = geom.Min(lo, spans[last].lo)
		hi = geom.Max(hi, spans[last].hi)
		last++
	}
	if first == last {
		return slices.Insert(spans, first, span{track, lo, hi})
	}
	spans[first] = span{track, lo, hi}
	return slices.Delete(spans, first+1, last)
}

// spanContains reports whether x lies in a span of track.
func spanContains(spans []span, track, x int) bool {
	i := searchSpans(spans, track, x)
	return i < len(spans) && spans[i].track == track && spans[i].lo <= x
}

func (s *shape) addH(row int, iv geom.Interval) { s.h = addSpan(s.h, row, iv) }

func (s *shape) addV(col int, iv geom.Interval) { s.v = addSpan(s.v, col, iv) }

func (s *shape) hasVia(p tig.Point) bool {
	_, ok := slices.BinarySearchFunc(s.vias, p, comparePoints)
	return ok
}

func (s *shape) addVia(p tig.Point) {
	if i, ok := slices.BinarySearchFunc(s.vias, p, comparePoints); !ok {
		s.vias = slices.Insert(s.vias, i, p)
	}
}

// addPath folds a search result path into the shape. Corners become
// vias. A non-terminal endpoint is a T-junction onto the net's own
// tree; it needs a via only when the junction crosses layers — the new
// wire arrives on one layer and the existing own metal at that point
// lies on the other. Such a via is always legal: the opposite layer it
// lands on is the net's own wire. Same-layer junctions take no via,
// which matters because another net's perpendicular wire may legally
// cross underneath the junction point. isTerminal tells the shape
// which endpoints are real net terminals (their via stacks are
// accounted separately by the flow layer).
func (s *shape) addPath(p tig.Path, isTerminal func(tig.Point) bool) {
	pts := p.Points
	if len(pts) < 2 {
		return
	}
	// Endpoint junction decisions must look at the shape as it was
	// before this path's segments are merged in.
	for _, endIdx := range [2]int{0, len(pts) - 1} {
		e := pts[endIdx]
		if isTerminal(e) || s.hasVia(e) {
			continue
		}
		adj := pts[1]
		if endIdx != 0 {
			adj = pts[len(pts)-2]
		}
		arrivesH := adj.Row == e.Row
		onH := spanContains(s.h, e.Row, e.Col)
		onV := spanContains(s.v, e.Col, e.Row)
		if arrivesH && !onH && onV || !arrivesH && !onV && onH {
			s.addVia(e)
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
		s.addVia(c)
	}
}

// commit writes the whole shape into the grid occupancy.
func (s *shape) commit(g *grid.Grid) {
	for _, sp := range s.h {
		g.CommitHWire(sp.track, geom.Iv(sp.lo, sp.hi))
	}
	for _, sp := range s.v {
		g.CommitVWire(sp.track, geom.Iv(sp.lo, sp.hi))
	}
	for _, p := range s.vias {
		g.CommitVia(p.Col, p.Row)
	}
}

// lift removes the whole shape from the grid occupancy, making the
// net's own metal transparent while the net is extended or re-routed.
func (s *shape) lift(g *grid.Grid) {
	for _, sp := range s.h {
		g.LiftHWire(sp.track, geom.Iv(sp.lo, sp.hi))
	}
	for _, sp := range s.v {
		g.LiftVWire(sp.track, geom.Iv(sp.lo, sp.hi))
	}
	for _, p := range s.vias {
		g.LiftVia(p.Col, p.Row)
	}
}

// wireLength returns the total metal length in layout units.
func (s *shape) wireLength(g *grid.Grid) int {
	total := 0
	for _, sp := range s.h {
		total += g.SpanLengthX(sp.lo, sp.hi)
	}
	for _, sp := range s.v {
		total += g.SpanLengthY(sp.lo, sp.hi)
	}
	return total
}

// nearestPoint returns the shape point closest (rectilinear metric,
// measured in track indices) to p, and that distance; ties go to the
// least point in (Col, Row) order. ok is false for an empty shape.
func (s *shape) nearestPoint(p tig.Point) (tig.Point, int, bool) {
	best := tig.Point{}
	bestD := -1
	consider := func(q tig.Point) {
		d := geom.Abs(p.Col-q.Col) + geom.Abs(p.Row-q.Row)
		if bestD < 0 || d < bestD || (d == bestD && comparePoints(q, best) < 0) {
			best, bestD = q, d
		}
	}
	for _, sp := range s.h {
		consider(tig.Point{Col: geom.Clamp(p.Col, sp.lo, sp.hi), Row: sp.track})
	}
	for _, sp := range s.v {
		consider(tig.Point{Col: sp.track, Row: geom.Clamp(p.Row, sp.lo, sp.hi)})
	}
	for _, q := range s.vias {
		consider(q)
	}
	if bestD < 0 {
		return tig.Point{}, 0, false
	}
	return best, bestD, true
}

// intersects reports whether any of the shape's metal lies inside the
// index-space window.
func (s *shape) intersects(cols, rows geom.Interval) bool {
	for _, sp := range s.h {
		if rows.Contains(sp.track) && geom.Iv(sp.lo, sp.hi).Overlaps(cols) {
			return true
		}
	}
	for _, sp := range s.v {
		if cols.Contains(sp.track) && geom.Iv(sp.lo, sp.hi).Overlaps(rows) {
			return true
		}
	}
	for _, p := range s.vias {
		if cols.Contains(p.Col) && rows.Contains(p.Row) {
			return true
		}
	}
	return false
}

// containsPoint reports whether the grid point carries metal of this
// shape on either layer.
func (s *shape) containsPoint(p tig.Point) bool {
	return s.hasVia(p) || spanContains(s.h, p.Row, p.Col) || spanContains(s.v, p.Col, p.Row)
}

// segments returns the shape's wire spans in a deterministic order,
// for the public result type.
func (s *shape) segments() []Segment {
	if len(s.h)+len(s.v) == 0 {
		return nil
	}
	out := make([]Segment, 0, len(s.h)+len(s.v))
	for _, sp := range s.h {
		out = append(out, Segment{Horizontal: true, Track: sp.track, Lo: sp.lo, Hi: sp.hi})
	}
	for _, sp := range s.v {
		out = append(out, Segment{Horizontal: false, Track: sp.track, Lo: sp.lo, Hi: sp.hi})
	}
	return out
}

// viaPoints returns a copy of the via points in a deterministic order.
func (s *shape) viaPoints() []tig.Point {
	return append(make([]tig.Point, 0, len(s.vias)), s.vias...)
}

// comparePoints orders points by column, then row.
func comparePoints(a, b tig.Point) int {
	if c := cmp.Compare(a.Col, b.Col); c != 0 {
		return c
	}
	return cmp.Compare(a.Row, b.Row)
}

// overlapLengthH returns the layout-unit length of the intersection of
// the column span on the given row with the shape's horizontal metal.
func (s *shape) overlapLengthH(g *grid.Grid, row int, iv geom.Interval) int {
	if iv.Empty() {
		return 0
	}
	total := 0
	for i := searchSpans(s.h, row, iv.Lo); i < len(s.h) && s.h[i].track == row && s.h[i].lo <= iv.Hi; i++ {
		x := geom.Iv(s.h[i].lo, s.h[i].hi).Intersect(iv)
		total += g.SpanLengthX(x.Lo, x.Hi)
	}
	return total
}

// overlapLengthV is the vertical analogue of overlapLengthH.
func (s *shape) overlapLengthV(g *grid.Grid, col int, iv geom.Interval) int {
	if iv.Empty() {
		return 0
	}
	total := 0
	for i := searchSpans(s.v, col, iv.Lo); i < len(s.v) && s.v[i].track == col && s.v[i].lo <= iv.Hi; i++ {
		x := geom.Iv(s.v[i].lo, s.v[i].hi).Intersect(iv)
		total += g.SpanLengthY(x.Lo, x.Hi)
	}
	return total
}
