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

// shape is the accumulated metal of the net being routed, in track
// index space: horizontal wire spans per row, vertical spans per
// column, and via points. Each layer is one slice of spans sorted by
// track, then lo. addSpan merges a new span with every span of its
// track that it overlaps or touches ([1,2] and [3,4] merge to [1,4]),
// so the spans of one track are disjoint and non-adjacent: overlapping
// re-routes of the same net are deduplicated, and wire length
// accounting is exact. Vias are one slice sorted by (Col, Row). Every
// method walks the slices in that order, so cost decisions and the
// carved geometry are the same on every run; none sorts, and only
// carve copies.
//
// The router keeps one shape and reuses its slices from net to net, so
// a shape grows without allocating once they have reached the largest
// net's size. carve copies a finished net out into its NetRoute.
type shape struct {
	h       []span      // LayerH: track is the row, lo..hi columns
	v       []span      // LayerV: track is the column, lo..hi rows
	vias    []tig.Point // sorted by comparePoints, distinct
	corners []tig.Point // addPath's scratch
}

// reset empties the shape, keeping its slices for the next net.
func (s *shape) reset() {
	s.h, s.v, s.vias = s.h[:0], s.v[:0], s.vias[:0]
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
	s.corners = p.AppendCorners(s.corners[:0])
	for _, c := range s.corners {
		s.addVia(c)
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

// containsPoint reports whether the grid point carries metal of this
// shape on either layer.
func (s *shape) containsPoint(p tig.Point) bool {
	return s.hasVia(p) || spanContains(s.h, p.Row, p.Col) || spanContains(s.v, p.Col, p.Row)
}

// carve copies the shape out as a net's Segments (the horizontal spans,
// then the vertical ones, each layer in the shape's order) and Vias.
// Both are capacity-capped windows carved from the backings *segs and
// *vias, so appending to one copies it rather than overwrite a
// neighbour. Either is nil when empty.
//
//oc:hotpath
func (s *shape) carve(segs *[]Segment, vias *[]tig.Point) ([]Segment, []tig.Point) {
	out := carve(segs, len(s.h)+len(s.v))
	for i, sp := range s.h {
		out[i] = Segment{Horizontal: true, Track: sp.track, Lo: sp.lo, Hi: sp.hi}
	}
	for i, sp := range s.v {
		out[len(s.h)+i] = Segment{Horizontal: false, Track: sp.track, Lo: sp.lo, Hi: sp.hi}
	}
	vs := carve(vias, len(s.vias))
	copy(vs, s.vias)
	return out, vs
}

// minBlock is the smallest backing block carve allocates.
const minBlock = 64

// carve returns n elements from the free end of the backing *buf as a
// capacity-capped window, or nil for n = 0. When the backing has no
// room it starts a new block of at least twice its size; windows
// carved earlier keep the old block alive, and none is ever handed out
// twice.
//
//oc:hotpath
func carve[T any](buf *[]T, n int) []T {
	if n == 0 {
		return nil
	}
	b := *buf
	if cap(b)-len(b) < n {
		b = make([]T, 0, max(n, 2*cap(b), minBlock))
	}
	b = b[:len(b)+n]
	*buf = b
	return b[len(b)-n : len(b) : len(b)]
}

// commitRoute writes a routed net's metal into the grid occupancy:
// its segments, then its vias.
func commitRoute(g *grid.Grid, nr *NetRoute) {
	for _, sg := range nr.Segments {
		if sg.Horizontal {
			g.CommitHWire(sg.Track, geom.Iv(sg.Lo, sg.Hi))
		} else {
			g.CommitVWire(sg.Track, geom.Iv(sg.Lo, sg.Hi))
		}
	}
	for _, p := range nr.Vias {
		g.CommitVia(p.Col, p.Row)
	}
}

// liftRoute removes what commitRoute wrote, making the net's metal
// transparent while it, or a net it blocks, is re-routed.
func liftRoute(g *grid.Grid, nr *NetRoute) {
	for _, sg := range nr.Segments {
		if sg.Horizontal {
			g.LiftHWire(sg.Track, geom.Iv(sg.Lo, sg.Hi))
		} else {
			g.LiftVWire(sg.Track, geom.Iv(sg.Lo, sg.Hi))
		}
	}
	for _, p := range nr.Vias {
		g.LiftVia(p.Col, p.Row)
	}
}

// occupies reports whether any of a routed net's metal lies inside the
// index-space window.
func occupies(nr *NetRoute, cols, rows geom.Interval) bool {
	for _, sg := range nr.Segments {
		across, along := rows, cols
		if !sg.Horizontal {
			across, along = cols, rows
		}
		if across.Contains(sg.Track) && geom.Iv(sg.Lo, sg.Hi).Overlaps(along) {
			return true
		}
	}
	for _, p := range nr.Vias {
		if cols.Contains(p.Col) && rows.Contains(p.Row) {
			return true
		}
	}
	return false
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
