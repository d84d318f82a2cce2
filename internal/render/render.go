// Package render draws routing results as ASCII art and SVG. It
// regenerates the paper's figures: the level B instance with its Track
// Intersection Graph (Figure 1), the Path Selection Trees (Figure 2),
// and the routed layout (Figure 3).
package render

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"overcell/internal/core"
	"overcell/internal/floorplan"
	"overcell/internal/geom"
	"overcell/internal/grid"
	"overcell/internal/tig"
)

// GridASCII renders the level B routing of a grid in track index
// space, one character per grid point, optionally downsampled by step
// (step <= 1 means full resolution). Legend: '.' empty, '-' horizontal
// wire, '|' vertical wire, '+' wires on both layers, 'x' via, 'o'
// terminal, '#' blocked on both layers (obstacle), 'h'/'v'
// single-layer obstacle.
func GridASCII(g *grid.Grid, res *core.Result, step int) string {
	if step < 1 {
		step = 1
	}
	w, h := g.NX(), g.NY()
	occ := make([]byte, w*h)
	for i := range occ {
		occ[i] = '.'
	}
	set := func(col, row int, c byte) {
		occ[row*w+col] = c
	}
	get := func(col, row int) byte { return occ[row*w+col] }
	// Obstacles from grid blockage that is not wire.
	for row := 0; row < h; row++ {
		for col := 0; col < w; col++ {
			hb := !g.HFree(row, geom.Iv(col, col))
			vb := !g.VFree(col, geom.Iv(row, row))
			switch {
			case hb && vb:
				set(col, row, '#')
			case hb:
				set(col, row, 'h')
			case vb:
				set(col, row, 'v')
			}
		}
	}
	if res != nil {
		for _, nr := range res.Routes {
			for _, s := range nr.Segments {
				for k := s.Lo; k <= s.Hi; k++ {
					col, row := k, s.Track
					if !s.Horizontal {
						col, row = s.Track, k
					}
					prev := get(col, row)
					mark := byte('-')
					if !s.Horizontal {
						mark = '|'
					}
					if prev == '-' && mark == '|' || prev == '|' && mark == '-' {
						mark = '+'
					}
					set(col, row, mark)
				}
			}
			for _, v := range nr.Vias {
				set(v.Col, v.Row, 'x')
			}
			for _, t := range nr.Terminals {
				set(t.Col, t.Row, 'o')
			}
		}
	}
	var b strings.Builder
	for row := h - 1; row >= 0; row -= step {
		for col := 0; col < w; col += step {
			b.WriteByte(get(col, row))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TreeASCII renders a Path Selection Tree (Figure 2) as an indented
// outline, one node per line in v_i/h_j naming.
func TreeASCII(root tig.Node) string {
	var b strings.Builder
	var walk func(n tig.Node, depth int)
	walk = func(n tig.Node, depth int) {
		fmt.Fprintf(&b, "%s%s (enter @%d)\n", strings.Repeat("  ", depth), n.Track(), n.Entry())
		for k := 0; k < n.NumChildren(); k++ {
			walk(n.Child(k), depth+1)
		}
	}
	walk(root, 0)
	return b.String()
}

// PathASCII formats a path as the paper writes them: the vertex
// sequence of alternating tracks, e.g. "(v2,h4,v6)".
func PathASCII(p tig.Path) string {
	if len(p.Points) < 2 {
		return "()"
	}
	var names []string
	for i := 1; i < len(p.Points); i++ {
		a, b := p.Points[i-1], p.Points[i]
		if a.Row == b.Row {
			names = append(names, tig.Track{Vertical: false, Index: a.Row}.String())
		} else {
			names = append(names, tig.Track{Vertical: true, Index: a.Col}.String())
		}
	}
	// The landing track of the final point completes the sequence.
	last := p.Points[len(p.Points)-1]
	prev := p.Points[len(p.Points)-2]
	if prev.Row == last.Row {
		names = append(names, tig.Track{Vertical: true, Index: last.Col}.String())
	} else {
		names = append(names, tig.Track{Vertical: false, Index: last.Row}.String())
	}
	return "(" + strings.Join(names, ",") + ")"
}

// SVG writes an SVG drawing of the placed layout and, when res is not
// nil, the level B routing over it: cells grey, sensitive cells
// hatched red, horizontal wires blue, vertical wires green, vias
// black.
func SVG(w io.Writer, l *floorplan.Layout, g *grid.Grid, res *core.Result) error {
	width, height := l.Width(), l.Height()
	fmt.Fprintf(w, `<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 %d %d">`+"\n", width, height)
	fmt.Fprintf(w, `<rect width="%d" height="%d" fill="white"/>`+"\n", width, height)
	flip := func(y int) int { return height - y }
	for _, c := range l.Cells() {
		r := c.Rect()
		fill := "#d7d7d7"
		if c.Sensitive {
			fill = "#f2b8b8"
		}
		fmt.Fprintf(w, `<rect x="%d" y="%d" width="%d" height="%d" fill="%s" stroke="#555"/>`+"\n",
			r.X0, flip(r.Y1), r.Width(), r.Height(), fill)
	}
	if res != nil && g != nil {
		line := func(x1, y1, x2, y2 int, color string) {
			fmt.Fprintf(w, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="%s" stroke-width="3"/>`+"\n",
				x1, flip(y1), x2, flip(y2), color)
		}
		for _, nr := range res.Routes {
			for _, s := range nr.Segments {
				if s.Horizontal {
					line(g.X(s.Lo), g.Y(s.Track), g.X(s.Hi), g.Y(s.Track), "#2f6fd0")
				} else {
					line(g.X(s.Track), g.Y(s.Lo), g.X(s.Track), g.Y(s.Hi), "#2fa05a")
				}
			}
			for _, v := range nr.Vias {
				p := g.Point(v.Col, v.Row)
				fmt.Fprintf(w, `<rect x="%d" y="%d" width="6" height="6" fill="black"/>`+"\n",
					p.X-3, flip(p.Y)-3)
			}
		}
	}
	_, err := fmt.Fprintln(w, "</svg>")
	return err
}

// NetTable formats per-net level B results as fixed-width text rows,
// sorted by net name. Alongside the geometry metrics it surfaces the
// per-net search effort (nodes expanded), the completion-ladder
// escalations the net consumed, and — for failed nets — the routing
// error.
func NetTable(res *core.Result) string {
	rows := append([]*core.NetRoute(nil), res.Routes...)
	sort.Slice(rows, func(i, j int) bool { return rows[i].Net.Name < rows[j].Net.Name })
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %6s %8s %6s %8s %5s %7s\n",
		"net", "pins", "wirelen", "vias", "expanded", "esc", "status")
	for _, nr := range rows {
		status := "ok"
		if nr.Err != nil {
			status = "FAILED: " + nr.Err.Error()
		}
		fmt.Fprintf(&b, "%-10s %6d %8d %6d %8d %5d %7s\n",
			nr.Net.Name, len(nr.Terminals), nr.WireLength, len(nr.Vias),
			nr.Expanded, nr.Escalations, status)
	}
	return b.String()
}

// TextDump writes the complete routed geometry of a level B result in
// a stable line-oriented format, one feature per line:
//
//	net <name> wire <H|V> track=<t> span=[lo,hi]   (index space)
//	net <name> via (col,row)
//	net <name> term (col,row)
//
// The format is meant for diffing, archiving and downstream tooling.
func TextDump(w io.Writer, res *core.Result) error {
	rows := append([]*core.NetRoute(nil), res.Routes...)
	sort.Slice(rows, func(i, j int) bool { return rows[i].Net.Name < rows[j].Net.Name })
	for _, nr := range rows {
		status := "ok"
		if nr.Err != nil {
			status = "failed"
		}
		if _, err := fmt.Fprintf(w, "net %s pins=%d wire=%d vias=%d status=%s\n",
			nr.Net.Name, len(nr.Terminals), nr.WireLength, len(nr.Vias), status); err != nil {
			return err
		}
		for _, s := range nr.Segments {
			dir := "H"
			if !s.Horizontal {
				dir = "V"
			}
			fmt.Fprintf(w, "net %s wire %s track=%d span=[%d,%d]\n", nr.Net.Name, dir, s.Track, s.Lo, s.Hi)
		}
		for _, v := range nr.Vias {
			fmt.Fprintf(w, "net %s via (%d,%d)\n", nr.Net.Name, v.Col, v.Row)
		}
		for _, p := range nr.Terminals {
			fmt.Fprintf(w, "net %s term (%d,%d)\n", nr.Net.Name, p.Col, p.Row)
		}
	}
	return nil
}
