package tig

import (
	"fmt"
	"sort"
	"strings"

	"overcell/internal/geom"
	"overcell/internal/grid"
)

// Edge is one edge of the Track Intersection Graph: a usable
// intersection of vertical track V and horizontal track H.
type Edge struct {
	V, H int
}

// Graph is the explicit bipartite Track Intersection Graph over a
// window of the routing grid. The MBFS never materialises this
// graph (it queries the grid lazily); Graph exists for analysis,
// tests, and the Figure 1 rendering.
type Graph struct {
	Cols, Rows geom.Interval
	Edges      []Edge
}

// BuildGraph enumerates every usable track intersection in the window.
func BuildGraph(g *grid.Grid, cols, rows geom.Interval) *Graph {
	cols = cols.Intersect(geom.Iv(0, g.NX()-1))
	rows = rows.Intersect(geom.Iv(0, g.NY()-1))
	tg := &Graph{Cols: cols, Rows: rows}
	for i := cols.Lo; i <= cols.Hi; i++ {
		for j := rows.Lo; j <= rows.Hi; j++ {
			if g.PointFree(i, j) {
				tg.Edges = append(tg.Edges, Edge{V: i, H: j})
			}
		}
	}
	return tg
}

// Degree returns the number of usable intersections on the given track.
func (g *Graph) Degree(t Track) int {
	n := 0
	for _, e := range g.Edges {
		if t.Vertical && e.V == t.Index || !t.Vertical && e.H == t.Index {
			n++
		}
	}
	return n
}

// HasEdge reports whether the intersection (v, h) is usable.
func (g *Graph) HasEdge(v, h int) bool {
	for _, e := range g.Edges {
		if e.V == v && e.H == h {
			return true
		}
	}
	return false
}

// AdjacencyList renders the graph as one line per vertical track
// vertex, in the v_i / h_j naming of the paper's Figure 1.
func (g *Graph) AdjacencyList() string {
	adj := make(map[int][]int)
	for _, e := range g.Edges {
		adj[e.V] = append(adj[e.V], e.H)
	}
	var b strings.Builder
	for i := g.Cols.Lo; i <= g.Cols.Hi; i++ {
		hs := adj[i]
		sort.Ints(hs)
		names := make([]string, len(hs))
		for k, h := range hs {
			names[k] = Track{Vertical: false, Index: h}.String()
		}
		fmt.Fprintf(&b, "%s: %s\n", Track{Vertical: true, Index: i}, strings.Join(names, " "))
	}
	return b.String()
}
