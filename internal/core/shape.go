package core

import (
	"sort"

	"overcell/internal/geom"
	"overcell/internal/grid"
	"overcell/internal/tig"
)

// shape is the accumulated metal of one net in track index space:
// horizontal wire spans per row, vertical spans per column, and via
// points. Interval sets keep overlapping re-routes of the same net
// deduplicated, so wire length accounting is exact.
type shape struct {
	h    map[int]*geom.IntervalSet // row -> column spans on LayerH
	v    map[int]*geom.IntervalSet // col -> row spans on LayerV
	vias map[tig.Point]bool
}

func newShape() *shape {
	return &shape{
		h:    make(map[int]*geom.IntervalSet),
		v:    make(map[int]*geom.IntervalSet),
		vias: make(map[tig.Point]bool),
	}
}

func (s *shape) addH(row int, iv geom.Interval) {
	set := s.h[row]
	if set == nil {
		set = &geom.IntervalSet{}
		s.h[row] = set
	}
	set.Add(iv)
}

func (s *shape) addV(col int, iv geom.Interval) {
	set := s.v[col]
	if set == nil {
		set = &geom.IntervalSet{}
		s.v[col] = set
	}
	set.Add(iv)
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
		onH := s.h[e.Row] != nil && s.h[e.Row].Contains(e.Col)
		onV := s.v[e.Col] != nil && s.v[e.Col].Contains(e.Row)
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

// sortedTracks returns the map's track keys in ascending order. Every
// iteration over s.h / s.v goes through it (or through an equivalent
// sorted collection) so that commit order, cost decisions, and reported
// geometry never depend on Go's randomized map iteration order — the
// level B results must be byte-identical run to run.
func sortedTracks(m map[int]*geom.IntervalSet) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// sortedVias returns the via points in ascending (Col, Row) order, for
// the same determinism reasons as sortedTracks.
func (s *shape) sortedVias() []tig.Point {
	out := make([]tig.Point, 0, len(s.vias))
	for p := range s.vias {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return lessPoint(out[i], out[j]) })
	return out
}

// commit writes the whole shape into the grid occupancy.
func (s *shape) commit(g *grid.Grid) {
	for _, row := range sortedTracks(s.h) {
		for _, iv := range s.h[row].Intervals() {
			g.CommitHWire(row, iv)
		}
	}
	for _, col := range sortedTracks(s.v) {
		for _, iv := range s.v[col].Intervals() {
			g.CommitVWire(col, iv)
		}
	}
	for _, p := range s.sortedVias() {
		g.CommitVia(p.Col, p.Row)
	}
}

// lift removes the whole shape from the grid occupancy, making the
// net's own metal transparent while the net is extended or re-routed.
func (s *shape) lift(g *grid.Grid) {
	for _, row := range sortedTracks(s.h) {
		for _, iv := range s.h[row].Intervals() {
			g.LiftHWire(row, iv)
		}
	}
	for _, col := range sortedTracks(s.v) {
		for _, iv := range s.v[col].Intervals() {
			g.LiftVWire(col, iv)
		}
	}
	for _, p := range s.sortedVias() {
		g.LiftVia(p.Col, p.Row)
	}
}

// wireLength returns the total metal length in layout units.
func (s *shape) wireLength(g *grid.Grid) int {
	total := 0
	for _, row := range sortedTracks(s.h) {
		for _, iv := range s.h[row].Intervals() {
			total += g.SpanLengthX(iv.Lo, iv.Hi)
		}
	}
	for _, col := range sortedTracks(s.v) {
		for _, iv := range s.v[col].Intervals() {
			total += g.SpanLengthY(iv.Lo, iv.Hi)
		}
	}
	return total
}

// nearestPoint returns the shape point closest (rectilinear metric,
// measured in track indices) to p, and that distance. ok is false for
// an empty shape.
func (s *shape) nearestPoint(p tig.Point) (tig.Point, int, bool) {
	best := tig.Point{}
	bestD := -1
	consider := func(q tig.Point, d int) {
		if bestD < 0 || d < bestD || (d == bestD && lessPoint(q, best)) {
			best, bestD = q, d
		}
	}
	for _, row := range sortedTracks(s.h) {
		for _, iv := range s.h[row].Intervals() {
			col := geom.Clamp(p.Col, iv.Lo, iv.Hi)
			q := tig.Point{Col: col, Row: row}
			consider(q, geom.Abs(p.Col-col)+geom.Abs(p.Row-row))
		}
	}
	for _, col := range sortedTracks(s.v) {
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

// intersects reports whether any of the shape's metal lies inside the
// index-space window.
func (s *shape) intersects(cols, rows geom.Interval) bool {
	for _, row := range sortedTracks(s.h) {
		if !rows.Contains(row) {
			continue
		}
		if s.h[row].Overlaps(cols) {
			return true
		}
	}
	for _, col := range sortedTracks(s.v) {
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

// containsPoint reports whether the grid point carries metal of this
// shape on either layer.
func (s *shape) containsPoint(p tig.Point) bool {
	if s.vias[p] {
		return true
	}
	if set := s.h[p.Row]; set != nil && set.Contains(p.Col) {
		return true
	}
	if set := s.v[p.Col]; set != nil && set.Contains(p.Row) {
		return true
	}
	return false
}

// segments returns the shape's wire spans in a deterministic order,
// for the public result type.
func (s *shape) segments() []Segment {
	var out []Segment
	for _, row := range sortedTracks(s.h) {
		for _, iv := range s.h[row].Intervals() {
			out = append(out, Segment{Horizontal: true, Track: row, Lo: iv.Lo, Hi: iv.Hi})
		}
	}
	for _, col := range sortedTracks(s.v) {
		for _, iv := range s.v[col].Intervals() {
			out = append(out, Segment{Horizontal: false, Track: col, Lo: iv.Lo, Hi: iv.Hi})
		}
	}
	return out
}

// viaPoints returns the via points in a deterministic order.
func (s *shape) viaPoints() []tig.Point {
	return s.sortedVias()
}

func lessPoint(a, b tig.Point) bool {
	if a.Col != b.Col {
		return a.Col < b.Col
	}
	return a.Row < b.Row
}

// overlapLengthH returns the layout-unit length of the intersection of
// the column span on the given row with the shape's horizontal metal.
func (s *shape) overlapLengthH(g *grid.Grid, row int, iv geom.Interval) int {
	set := s.h[row]
	if set == nil {
		return 0
	}
	total := 0
	for _, own := range set.Intervals() {
		x := own.Intersect(iv)
		if !x.Empty() {
			total += g.SpanLengthX(x.Lo, x.Hi)
		}
	}
	return total
}

// overlapLengthV is the vertical analogue of overlapLengthH.
func (s *shape) overlapLengthV(g *grid.Grid, col int, iv geom.Interval) int {
	set := s.v[col]
	if set == nil {
		return 0
	}
	total := 0
	for _, own := range set.Intervals() {
		x := own.Intersect(iv)
		if !x.Empty() {
			total += g.SpanLengthY(x.Lo, x.Hi)
		}
	}
	return total
}
