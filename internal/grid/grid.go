// Package grid models the level B routing surface of Katsadas & Chen
// (DAC 1990, section 3): an array of rectangular cells defined by
// horizontal and vertical routing tracks that may have non-uniform
// spacing, with two routing layers in HV discipline.
//
// Horizontal wire runs occupy LayerH (metal3) along horizontal tracks;
// vertical runs occupy LayerV (metal4) along vertical tracks; a corner
// is a via that occupies the grid point on both layers. Perpendicular
// wires of different nets may cross freely because they live on
// different layers; same-layer overlap on a track and via collisions
// are conflicts.
//
// The grid stores occupancy only — which grid points are blocked on
// which layer and which carry routed wire or unrouted terminals. Net
// ownership bookkeeping (lifting a net's own shapes out of the blocked
// sets while re-routing it) belongs to the router in internal/core.
package grid

import (
	"fmt"
	"sort"

	"overcell/internal/geom"
	"overcell/internal/robust"
)

// Layer identifies one of the two level B routing layers.
type Layer int

// The two level B layers. In the paper's technology mapping LayerH is
// metal3 and LayerV is metal4.
const (
	LayerH Layer = iota // horizontal runs
	LayerV              // vertical runs
)

// String implements fmt.Stringer.
func (l Layer) String() string {
	switch l {
	case LayerH:
		return "H(metal3)"
	case LayerV:
		return "V(metal4)"
	}
	return fmt.Sprintf("layer(%d)", int(l))
}

// Mask selects a subset of layers for obstacle insertion. Obstacles
// may block only one layer (for example, pre-existing metal3 wiring
// inside a macro cell) or both (sensitive circuitry excluded from all
// over-cell routing).
type Mask uint8

// Layer masks.
const (
	MaskH    Mask = 1 << iota // block LayerH only
	MaskV                     // block LayerV only
	MaskBoth = MaskH | MaskV
)

// Grid is the routing surface. Columns index vertical tracks (left to
// right), rows index horizontal tracks (bottom to top). Coordinates
// are layout database units.
//
// Occupancy is five overlays with one bit per grid point, all in one
// allocation. The LayerH overlays hold a row's column bits in wx
// words, row after row; the LayerV overlays hold a column's row bits
// in wy words, column after column. Every mutation clips its span to
// the grid, so no bit outside it is ever set.
type Grid struct {
	xs, ys []int // track coordinates, strictly increasing
	wx, wy int   // words per row (NX bits) and per column (NY bits)

	blockH geom.Bits // per row: blocked columns on LayerH
	wireH  geom.Bits // per row: columns covered by routed wire on LayerH
	terms  geom.Bits // per row: columns holding unrouted terminals
	blockV geom.Bits // per column: blocked rows on LayerV
	wireV  geom.Bits // per column: rows covered by routed wire on LayerV
}

// maxPoints caps a grid's size. Occupancy takes five bits per point,
// so a grid at the cap holds about 10 MiB of it.
const maxPoints = 1 << 24

// New builds a grid from explicit track coordinate lists. Both lists
// must be non-empty and strictly increasing, and the grid may have at
// most 1<<24 points; violations return an error matching
// robust.ErrInvalidInput (a zero-track or oversized grid is a
// malformed request, not a routing failure).
func New(xs, ys []int) (*Grid, error) {
	if len(xs) == 0 || len(ys) == 0 {
		return nil, robust.Invalidf("grid: need at least one track in each direction (got %d x %d)",
			len(xs), len(ys))
	}
	if len(xs)*len(ys) > maxPoints {
		return nil, robust.Invalidf("grid: %d x %d tracks exceed the limit of %d points",
			len(xs), len(ys), maxPoints)
	}
	for i := 1; i < len(xs); i++ {
		if xs[i] <= xs[i-1] {
			return nil, robust.Invalidf("grid: vertical track x-coordinates not strictly increasing at index %d (%d then %d)",
				i, xs[i-1], xs[i])
		}
	}
	for j := 1; j < len(ys); j++ {
		if ys[j] <= ys[j-1] {
			return nil, robust.Invalidf("grid: horizontal track y-coordinates not strictly increasing at index %d (%d then %d)",
				j, ys[j-1], ys[j])
		}
	}
	g := &Grid{
		xs: append([]int(nil), xs...),
		ys: append([]int(nil), ys...),
		wx: geom.BitsWords(len(xs)),
		wy: geom.BitsWords(len(ys)),
	}
	h, v := len(ys)*g.wx, len(xs)*g.wy
	occ := make(geom.Bits, 3*h+2*v)
	// Each overlay's capacity ends where it does, so a track index off
	// the grid panics rather than reaching into the next overlay.
	take := func(n int) geom.Bits {
		b := occ[:n:n]
		occ = occ[n:]
		return b
	}
	g.blockH, g.wireH, g.terms, g.blockV, g.wireV = take(h), take(h), take(h), take(v), take(v)
	return g, nil
}

// Uniform builds an nx-by-ny grid with the given track pitch, with the
// first tracks at the origin.
func Uniform(nx, ny, pitch int) (*Grid, error) {
	if nx <= 0 || ny <= 0 || pitch <= 0 {
		return nil, robust.Invalidf("grid: invalid uniform grid %dx%d pitch %d", nx, ny, pitch)
	}
	xs := make([]int, nx)
	ys := make([]int, ny)
	for i := range xs {
		xs[i] = i * pitch
	}
	for j := range ys {
		ys[j] = j * pitch
	}
	return New(xs, ys)
}

// Cover builds a uniform-pitch grid whose tracks cover the rectangle r
// (tracks at r.X0, r.X0+pitch, ... and likewise in y). The grid always
// includes at least one track per direction.
func Cover(r geom.Rect, pitch int) (*Grid, error) {
	if pitch <= 0 {
		return nil, robust.Invalidf("grid: invalid pitch %d", pitch)
	}
	var xs, ys []int
	for x := r.X0; x <= r.X1; x += pitch {
		xs = append(xs, x)
	}
	for y := r.Y0; y <= r.Y1; y += pitch {
		ys = append(ys, y)
	}
	if len(xs) == 0 {
		xs = []int{r.X0}
	}
	if len(ys) == 0 {
		ys = []int{r.Y0}
	}
	return New(xs, ys)
}

// NX returns the number of vertical tracks (columns).
func (g *Grid) NX() int { return len(g.xs) }

// NY returns the number of horizontal tracks (rows).
func (g *Grid) NY() int { return len(g.ys) }

// X returns the x-coordinate of column i.
func (g *Grid) X(i int) int { return g.xs[i] }

// Y returns the y-coordinate of row j.
func (g *Grid) Y(j int) int { return g.ys[j] }

// Point returns the layout coordinates of grid point (col, row).
func (g *Grid) Point(col, row int) geom.Point {
	return geom.Pt(g.xs[col], g.ys[row])
}

// Bounds returns the rectangle spanned by the outermost tracks.
func (g *Grid) Bounds() geom.Rect {
	return geom.R(g.xs[0], g.ys[0], g.xs[len(g.xs)-1], g.ys[len(g.ys)-1])
}

// InRange reports whether (col, row) is a valid grid point index.
func (g *Grid) InRange(col, row int) bool {
	return col >= 0 && col < len(g.xs) && row >= 0 && row < len(g.ys)
}

// NearestCol returns the column whose track is closest to x (ties go
// to the lower index).
func (g *Grid) NearestCol(x int) int { return nearest(g.xs, x) }

// NearestRow returns the row whose track is closest to y.
func (g *Grid) NearestRow(y int) int { return nearest(g.ys, y) }

func nearest(coords []int, v int) int {
	i := sort.SearchInts(coords, v)
	if i == 0 {
		return 0
	}
	if i == len(coords) {
		return len(coords) - 1
	}
	if v-coords[i-1] <= coords[i]-v {
		return i - 1
	}
	return i
}

// SpanLengthX returns the layout-unit distance between columns a and b.
func (g *Grid) SpanLengthX(a, b int) int { return geom.Abs(g.xs[a] - g.xs[b]) }

// SpanLengthY returns the layout-unit distance between rows a and b.
func (g *Grid) SpanLengthY(a, b int) int { return geom.Abs(g.ys[a] - g.ys[b]) }

// ---------------------------------------------------------------------------
// Occupancy mutation
// ---------------------------------------------------------------------------

// row returns row's column bits in the LayerH overlay o.
func (g *Grid) row(o geom.Bits, row int) geom.Bits { return o[row*g.wx : (row+1)*g.wx] }

// col returns col's row bits in the LayerV overlay o.
func (g *Grid) col(o geom.Bits, col int) geom.Bits { return o[col*g.wy : (col+1)*g.wy] }

// setH sets or clears the columns cols of row in o, clipped to the grid.
func (g *Grid) setH(o geom.Bits, row int, cols geom.Interval, on bool) {
	cols = cols.Intersect(geom.Iv(0, len(g.xs)-1))
	if on {
		g.row(o, row).SetRange(cols.Lo, cols.Hi)
	} else {
		g.row(o, row).ClearRange(cols.Lo, cols.Hi)
	}
}

// setV sets or clears the rows rows of col in o, clipped to the grid.
func (g *Grid) setV(o geom.Bits, col int, rows geom.Interval, on bool) {
	rows = rows.Intersect(geom.Iv(0, len(g.ys)-1))
	if on {
		g.col(o, col).SetRange(rows.Lo, rows.Hi)
	} else {
		g.col(o, col).ClearRange(rows.Lo, rows.Hi)
	}
}

// BlockH marks the column span cols of row as blocked on LayerH.
func (g *Grid) BlockH(row int, cols geom.Interval) { g.setH(g.blockH, row, cols, true) }

// BlockV marks the row span rows of col as blocked on LayerV.
func (g *Grid) BlockV(col int, rows geom.Interval) { g.setV(g.blockV, col, rows, true) }

// BlockPoint blocks the single grid point on both layers (a via or a
// terminal stack).
func (g *Grid) BlockPoint(col, row int) {
	g.setH(g.blockH, row, geom.Iv(col, col), true)
	g.setV(g.blockV, col, geom.Iv(row, row), true)
}

// UnblockPoint removes the single grid point from both layers.
func (g *Grid) UnblockPoint(col, row int) {
	g.setH(g.blockH, row, geom.Iv(col, col), false)
	g.setV(g.blockV, col, geom.Iv(row, row), false)
}

// BlockRect blocks every grid point inside the layout rectangle r on
// the layers selected by m. This is how arbitrary obstacles — power
// and ground wiring, sensitive macro-cell circuitry — enter the grid
// (paper sections 1 and 3). Rectangles that miss every track are
// no-ops.
func (g *Grid) BlockRect(r geom.Rect, m Mask) {
	cols, okc := g.colRange(r.X0, r.X1)
	rows, okr := g.rowRange(r.Y0, r.Y1)
	if !okc || !okr {
		return
	}
	if m&MaskH != 0 {
		for j := rows.Lo; j <= rows.Hi; j++ {
			g.BlockH(j, cols)
		}
	}
	if m&MaskV != 0 {
		for i := cols.Lo; i <= cols.Hi; i++ {
			g.BlockV(i, rows)
		}
	}
}

// IndexWindow returns the index-space track ranges covered by the
// layout rectangle; ok is false when the rectangle misses every track
// in either direction.
func (g *Grid) IndexWindow(r geom.Rect) (cols, rows geom.Interval, ok bool) {
	cols, okc := g.colRange(r.X0, r.X1)
	rows, okr := g.rowRange(r.Y0, r.Y1)
	return cols, rows, okc && okr
}

// colRange returns the inclusive column index range covered by [x0,x1].
func (g *Grid) colRange(x0, x1 int) (geom.Interval, bool) {
	lo := sort.SearchInts(g.xs, x0)
	hi := sort.Search(len(g.xs), func(i int) bool { return g.xs[i] > x1 }) - 1
	if lo > hi {
		return geom.Interval{}, false
	}
	return geom.Iv(lo, hi), true
}

// rowRange returns the inclusive row index range covered by [y0,y1].
func (g *Grid) rowRange(y0, y1 int) (geom.Interval, bool) {
	lo := sort.SearchInts(g.ys, y0)
	hi := sort.Search(len(g.ys), func(j int) bool { return g.ys[j] > y1 }) - 1
	if lo > hi {
		return geom.Interval{}, false
	}
	return geom.Iv(lo, hi), true
}

// CommitHWire records a routed horizontal wire on LayerH along row,
// blocking it and adding it to the wire overlay used by the cost
// function's routed-proximity term.
func (g *Grid) CommitHWire(row int, cols geom.Interval) {
	g.setH(g.blockH, row, cols, true)
	g.setH(g.wireH, row, cols, true)
}

// CommitVWire records a routed vertical wire on LayerV along col.
func (g *Grid) CommitVWire(col int, rows geom.Interval) {
	g.setV(g.blockV, col, rows, true)
	g.setV(g.wireV, col, rows, true)
}

// CommitVia records a routed via at (col, row), blocking the point on
// both layers.
func (g *Grid) CommitVia(col, row int) {
	g.CommitHWire(row, geom.Iv(col, col))
	g.CommitVWire(col, geom.Iv(row, row))
}

// LiftHWire removes a previously committed horizontal wire (both
// blockage and wire overlay). Used by the router to make a net's own
// metal transparent while extending the same net.
func (g *Grid) LiftHWire(row int, cols geom.Interval) {
	g.setH(g.blockH, row, cols, false)
	g.setH(g.wireH, row, cols, false)
}

// LiftVWire removes a previously committed vertical wire.
func (g *Grid) LiftVWire(col int, rows geom.Interval) {
	g.setV(g.blockV, col, rows, false)
	g.setV(g.wireV, col, rows, false)
}

// LiftVia removes a previously committed via.
func (g *Grid) LiftVia(col, row int) {
	g.LiftHWire(row, geom.Iv(col, col))
	g.LiftVWire(col, geom.Iv(row, row))
}

// MarkTerminal registers an unrouted terminal at (col, row): the point
// is blocked on both layers (the terminal's via stack down to the cell
// pin) and counted by the unrouted-terminal proximity term.
func (g *Grid) MarkTerminal(col, row int) {
	g.BlockPoint(col, row)
	g.setH(g.terms, row, geom.Iv(col, col), true)
}

// ClearTerminal removes the unrouted-terminal marker and its blockage;
// the router calls this for a net's own terminals before routing it.
func (g *Grid) ClearTerminal(col, row int) {
	g.UnblockPoint(col, row)
	g.setH(g.terms, row, geom.Iv(col, col), false)
}

// ---------------------------------------------------------------------------
// Occupancy queries
// ---------------------------------------------------------------------------

// HFree reports whether the column span on row is entirely clear on
// LayerH.
func (g *Grid) HFree(row int, cols geom.Interval) bool {
	return g.row(g.blockH, row).NextSet(cols.Lo, cols.Hi) > cols.Hi
}

// VFree reports whether the row span on col is entirely clear on
// LayerV.
func (g *Grid) VFree(col int, rows geom.Interval) bool {
	return g.col(g.blockV, col).NextSet(rows.Lo, rows.Hi) > rows.Hi
}

// PointFree reports whether the grid point is clear on both layers,
// i.e. usable as a corner via or terminal landing.
func (g *Grid) PointFree(col, row int) bool {
	return !g.row(g.blockH, row).Has(col) && !g.col(g.blockV, col).Has(row)
}

// HClearSpan returns the maximal clear column span on row's LayerH
// that contains col, clipped to bounds. ok is false when col itself is
// blocked. Columns off the grid count as clear.
func (g *Grid) HClearSpan(row, col int, bounds geom.Interval) (geom.Interval, bool) {
	return g.row(g.blockH, row).ClearSpanAround(col, bounds)
}

// VClearSpan returns the maximal clear row span on col's LayerV that
// contains row, clipped to bounds.
func (g *Grid) VClearSpan(col, row int, bounds geom.Interval) (geom.Interval, bool) {
	return g.col(g.blockV, col).ClearSpanAround(row, bounds)
}

// countH returns the number of set bits of o in the window: one
// masked popcount per row of it on the grid.
func (g *Grid) countH(o geom.Bits, cols, rows geom.Interval) int {
	r0, r1 := geom.Max(rows.Lo, 0), geom.Min(rows.Hi, len(g.ys)-1)
	if r0 > r1 {
		return 0
	}
	return o[r0*g.wx:(r1+1)*g.wx].CountEach(g.wx, cols.Lo, cols.Hi)
}

// countV returns the number of set bits of o in the window: one
// masked popcount per column of it on the grid.
func (g *Grid) countV(o geom.Bits, cols, rows geom.Interval) int {
	c0, c1 := geom.Max(cols.Lo, 0), geom.Min(cols.Hi, len(g.xs)-1)
	if c0 > c1 {
		return 0
	}
	return o[c0*g.wy:(c1+1)*g.wy].CountEach(g.wy, rows.Lo, rows.Hi)
}

// WireCountIn returns the number of routed-wire grid points (on either
// layer) within the index-space window cols x rows. Points carrying
// wire on both layers (vias) count twice; the cost function only needs
// a monotone congestion signal, not an exact census.
func (g *Grid) WireCountIn(cols, rows geom.Interval) int {
	return g.countH(g.wireH, cols, rows) + g.countV(g.wireV, cols, rows)
}

// HWireCountIn returns the number of horizontal-layer wire points
// within the index-space window; used by the parallel-run coupling
// cost term.
func (g *Grid) HWireCountIn(cols, rows geom.Interval) int { return g.countH(g.wireH, cols, rows) }

// VWireCountIn is the vertical-layer analogue of HWireCountIn.
func (g *Grid) VWireCountIn(cols, rows geom.Interval) int { return g.countV(g.wireV, cols, rows) }

// TermCountIn returns the number of unrouted terminals within the
// index-space window.
func (g *Grid) TermCountIn(cols, rows geom.Interval) int { return g.countH(g.terms, cols, rows) }

// BlockedCountIn returns the number of blocked (point, layer) pairs
// within the index-space window, the raw ingredient of the paper's
// area congestion factor.
func (g *Grid) BlockedCountIn(cols, rows geom.Interval) int {
	return g.countH(g.blockH, cols, rows) + g.countV(g.blockV, cols, rows)
}

// CongestionIn returns the blocked fraction of the index-space window,
// in [0,1]: BlockedCountIn divided by twice the window's point count
// (two layers per point).
func (g *Grid) CongestionIn(cols, rows geom.Interval) float64 {
	cols = cols.Intersect(geom.Iv(0, len(g.xs)-1))
	rows = rows.Intersect(geom.Iv(0, len(g.ys)-1))
	if cols.Empty() || rows.Empty() {
		return 0
	}
	total := 2 * cols.Len() * rows.Len()
	return float64(g.BlockedCountIn(cols, rows)) / float64(total)
}

// BlockedPoints returns the total count of blocked (point, layer)
// pairs in the whole grid; used by tests and capacity reports.
func (g *Grid) BlockedPoints() int {
	h, v := g.BlockedPerLayer()
	return h + v
}

// BlockedPerLayer splits BlockedPoints by layer: h counts blocked
// points on the horizontal-track layer, v on the vertical-track layer.
// The per-layer track-utilisation series of the congestion telemetry
// is built from these.
func (g *Grid) BlockedPerLayer() (h, v int) {
	return g.blockH.Count(0, len(g.blockH)<<6-1), g.blockV.Count(0, len(g.blockV)<<6-1)
}
