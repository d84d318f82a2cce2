// Package floorplan models the macro-cell layout substrate the paper's
// methodology operates on: rows of placed macro cells with pins on
// their top and bottom edges, routing channels between the rows, and
// the technology's layer pitches. Level A routing determines the
// channel heights; the resulting fixed geometry ("after completion of
// level A routing, the final dimensions of the layout and the location
// of the net terminals are known", section 2) is what level B routes
// over.
package floorplan

import (
	"fmt"

	"overcell/internal/geom"
)

// Tech carries the technology parameters the flows need. The paper's
// design-rule observation — "as more metal layers are added, the
// linewidth of the wires and the size of the vias increase" — is
// modelled by a coarser pitch for the over-cell layer pair.
type Tech struct {
	// M12Pitch is the track pitch of metal1/metal2, used inside
	// channels (level A).
	M12Pitch int
	// M34Pitch is the coarser track pitch of metal3/metal4, used by
	// the over-cell grid (level B).
	M34Pitch int
}

// DefaultTech returns pitches in layout database units with the upper
// layer pair 50% coarser, a typical late-80s four-metal relationship.
func DefaultTech() Tech {
	return Tech{M12Pitch: 8, M34Pitch: 12}
}

// Validate checks the technology parameters.
func (t Tech) Validate() error {
	if t.M12Pitch <= 0 || t.M34Pitch <= 0 {
		return fmt.Errorf("floorplan: non-positive pitch in %+v", t)
	}
	if t.M34Pitch < t.M12Pitch {
		return fmt.Errorf("floorplan: metal3/4 pitch %d finer than metal1/2 pitch %d",
			t.M34Pitch, t.M12Pitch)
	}
	return nil
}

// Side says which cell edge a pin sits on.
type Side int

// Pin sides.
const (
	PinTop Side = iota
	PinBottom
)

// Pin is a terminal on a macro cell boundary.
type Pin struct {
	Name string
	DX   int // offset from the cell's left edge
	Side Side
	cell *Cell
}

// Cell returns the owning cell.
func (p *Pin) Cell() *Cell { return p.cell }

// Pos returns the absolute pin position. Valid only after
// Layout.Place.
func (p *Pin) Pos() geom.Point {
	x := p.cell.x + p.DX
	if p.Side == PinTop {
		return geom.Pt(x, p.cell.y+p.cell.H)
	}
	return geom.Pt(x, p.cell.y)
}

// ChannelIndex returns the index of the channel this pin faces: a pin
// on the top edge of row r faces channel r, a pin on the bottom edge
// faces channel r-1. The result may be -1 (below the bottom row) or
// NumChannels() (above the top row); such pins belong to boundary
// pseudo-channels the global router folds inward.
func (p *Pin) ChannelIndex() int {
	if p.Side == PinTop {
		return p.cell.row
	}
	return p.cell.row - 1
}

// Cell is one placed macro cell.
type Cell struct {
	Name string
	W, H int
	// Sensitive marks cells whose over-cell area must be excluded from
	// level B routing (capacitive-coupling exclusion, paper section 1).
	Sensitive bool
	Pins      []*Pin

	x, y int // computed by Place
	row  int
}

// Rect returns the placed cell rectangle. Valid only after Place.
func (c *Cell) Rect() geom.Rect { return geom.R(c.x, c.y, c.x+c.W, c.y+c.H) }

// Row returns the row index the cell was placed in.
func (c *Cell) Row() int { return c.row }

// AddPin adds a pin on the cell boundary and returns it.
func (c *Cell) AddPin(name string, dx int, side Side) *Pin {
	p := &Pin{Name: name, DX: dx, Side: side, cell: c}
	c.Pins = append(c.Pins, p)
	return p
}

// Row is one horizontal row of macro cells.
type Row struct {
	Cells []*Cell
	// Gap is the horizontal space left between adjacent cells (and at
	// both row ends), providing feedthrough capacity for nets crossing
	// the row.
	Gap int

	y, height int // computed by Place
}

// Height returns the row height: the tallest cell.
func (r *Row) Height() int {
	h := 0
	for _, c := range r.Cells {
		if c.H > h {
			h = c.H
		}
	}
	return h
}

// width returns the cells-plus-gaps extent of the row.
func (r *Row) width() int {
	w := r.Gap
	for _, c := range r.Cells {
		w += c.W + r.Gap
	}
	return w
}

// Layout is a row-based macro-cell placement.
type Layout struct {
	Tech   Tech
	Rows   []*Row
	Margin int

	placed        bool
	width, height int
}

// New returns an empty layout.
func New(tech Tech, margin int) *Layout {
	return &Layout{Tech: tech, Margin: margin}
}

// AddRow appends a row (bottom to top) with the given feedthrough gap.
func (l *Layout) AddRow(gap int) *Row {
	r := &Row{Gap: gap}
	l.Rows = append(l.Rows, r)
	return r
}

// AddCell appends a cell to the row and returns it.
func (r *Row) AddCell(name string, w, h int) *Cell {
	c := &Cell{Name: name, W: w, H: h}
	r.Cells = append(r.Cells, c)
	return c
}

// NumChannels returns the number of routing channels: one between each
// pair of adjacent rows.
func (l *Layout) NumChannels() int {
	if len(l.Rows) == 0 {
		return 0
	}
	return len(l.Rows) - 1
}

// Validate checks the layout structure: at least one row, non-empty
// rows, positive cell sizes, pins on their cells.
func (l *Layout) Validate() error {
	if err := l.Tech.Validate(); err != nil {
		return err
	}
	if len(l.Rows) == 0 {
		return fmt.Errorf("floorplan: layout has no rows")
	}
	for ri, r := range l.Rows {
		if len(r.Cells) == 0 {
			return fmt.Errorf("floorplan: row %d has no cells", ri)
		}
		if r.Gap < 0 {
			return fmt.Errorf("floorplan: row %d has negative gap", ri)
		}
		for _, c := range r.Cells {
			if c.W <= 0 || c.H <= 0 {
				return fmt.Errorf("floorplan: cell %q has non-positive size %dx%d", c.Name, c.W, c.H)
			}
			for _, p := range c.Pins {
				if p.DX < 0 || p.DX > c.W {
					return fmt.Errorf("floorplan: pin %q.%q offset %d outside cell width %d",
						c.Name, p.Name, p.DX, c.W)
				}
			}
		}
	}
	return nil
}

// Place computes the absolute geometry given the height of every
// channel (len must equal NumChannels). Rows are left-aligned at the
// margin; row i+1 sits channelHeights[i] above row i.
func (l *Layout) Place(channelHeights []int) error {
	if err := l.Validate(); err != nil {
		return err
	}
	if len(channelHeights) != l.NumChannels() {
		return fmt.Errorf("floorplan: %d channel heights for %d channels",
			len(channelHeights), l.NumChannels())
	}
	for i, h := range channelHeights {
		if h < 0 {
			return fmt.Errorf("floorplan: negative height for channel %d", i)
		}
	}
	y := l.Margin
	maxW := 0
	for ri, r := range l.Rows {
		r.y = y
		r.height = r.Height()
		x := l.Margin + r.Gap
		for _, c := range r.Cells {
			c.x = x
			c.y = y + (r.height-c.H)/2 // centre shorter cells vertically
			c.row = ri
			x += c.W + r.Gap
		}
		if w := l.Margin + r.width(); w > maxW {
			maxW = w
		}
		y += r.height
		if ri < len(channelHeights) {
			y += channelHeights[ri]
		}
	}
	l.width = maxW + l.Margin
	l.height = y + l.Margin
	l.placed = true
	return nil
}

// Placed reports whether Place has run.
func (l *Layout) Placed() bool { return l.placed }

// Width returns the layout width. Valid only after Place.
func (l *Layout) Width() int { return l.width }

// Height returns the layout height. Valid only after Place.
func (l *Layout) Height() int { return l.height }

// Area returns Width*Height.
func (l *Layout) Area() int64 { return int64(l.width) * int64(l.height) }

// Bounds returns the chip rectangle.
func (l *Layout) Bounds() geom.Rect { return geom.R(0, 0, l.width, l.height) }

// RowRect returns the full-width band of row i.
func (l *Layout) RowRect(i int) geom.Rect {
	r := l.Rows[i]
	return geom.R(0, r.y, l.width, r.y+r.height)
}

// Gaps returns the x-intervals of row i free of cells (between and
// beside the cells), the corridors available to feedthrough wiring.
func (l *Layout) Gaps(i int) []geom.Interval {
	r := l.Rows[i]
	var out []geom.Interval
	x := l.Margin
	for _, c := range r.Cells {
		if c.x > x {
			out = append(out, geom.Iv(x, c.x))
		}
		x = c.x + c.W
	}
	if x < l.width-l.Margin {
		out = append(out, geom.Iv(x, l.width-l.Margin))
	}
	return out
}

// Cells returns all cells of the layout in row order.
func (l *Layout) Cells() []*Cell {
	var out []*Cell
	for _, r := range l.Rows {
		out = append(out, r.Cells...)
	}
	return out
}

// Stats summarises the layout for Table 1 reporting.
type Stats struct {
	Cells    int
	Rows     int
	Pins     int
	CellArea int64
}

// ComputeStats returns layout statistics.
func (l *Layout) ComputeStats() Stats {
	s := Stats{Rows: len(l.Rows)}
	for _, c := range l.Cells() {
		s.Cells++
		s.Pins += len(c.Pins)
		s.CellArea += int64(c.W) * int64(c.H)
	}
	return s
}
