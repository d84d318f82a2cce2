package tig

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"overcell/internal/geom"
	"overcell/internal/grid"
)

// refNode is one path-selection-tree node of the reference search.
type refNode struct {
	track  Track
	entry  int
	parent *refNode
}

// refResult is what the reference search reports. Refusals of the
// visit rule are counted apart by whether the refused intersection was
// usable.
type refResult struct {
	found                 bool
	paths                 [][]Point
	corners               int
	levels                int
	expanded              int
	refusedUsable         int
	refusedBlocked        int
	outOfWindow, sameTerm bool
}

// refSearch is a plain level-synchronised MBFS with the semantics of
// Search: visited tracks in a map, tree nodes on the heap, no budget.
// For each candidate it probes the intersection first and then applies
// the visit rule, and it counts every refusal, usable or not.
func refSearch(s Surface, from, to Point, cfg Config) refResult {
	if from == to {
		return refResult{found: true, sameTerm: true}
	}
	cb, rb := cfg.ColBounds, cfg.RowBounds
	if cb == (geom.Interval{}) && rb == (geom.Interval{}) {
		cb, rb = geom.Iv(0, s.NX()-1), geom.Iv(0, s.NY()-1)
	}
	cb = cb.Intersect(geom.Iv(0, s.NX()-1))
	rb = rb.Intersect(geom.Iv(0, s.NY()-1))
	if !cb.Contains(from.Col) || !cb.Contains(to.Col) || !rb.Contains(from.Row) || !rb.Contains(to.Row) {
		return refResult{outOfWindow: true}
	}
	maxCorners, maxPaths := cfg.MaxCorners, cfg.MaxPaths
	if maxCorners <= 0 {
		maxCorners = DefaultMaxCorners
	}
	if maxPaths <= 0 {
		maxPaths = DefaultMaxPaths
	}
	clearSpan := func(t Track, at int) (geom.Interval, bool) {
		if t.Vertical {
			return s.VClearSpan(t.Index, at, rb)
		}
		return s.HClearSpan(t.Index, at, cb)
	}
	isTarget := func(t Track) bool {
		return t.Vertical && t.Index == to.Col || !t.Vertical && t.Index == to.Row
	}
	path := func(n *refNode) []Point {
		var chain []*refNode
		for c := n; c.parent != nil; c = c.parent {
			chain = append(chain, c)
		}
		pts := []Point{from}
		for i := len(chain) - 1; i >= 0; i-- {
			c := chain[i]
			p := Point{Col: c.entry, Row: c.track.Index}
			if c.track.Vertical {
				p = Point{Col: c.track.Index, Row: c.entry}
			}
			if p != pts[len(pts)-1] {
				pts = append(pts, p)
			}
		}
		if to != pts[len(pts)-1] {
			pts = append(pts, to)
		}
		return pts
	}

	var res refResult
	visited := map[Track]int{} // track -> level of its first visit
	var frontier []*refNode
	if cfg.Starts == StartBoth || cfg.Starts == StartVertical {
		frontier = append(frontier, &refNode{track: Track{Vertical: true, Index: from.Col}, entry: from.Row})
	}
	if cfg.Starts == StartBoth || cfg.Starts == StartHorizontal {
		frontier = append(frontier, &refNode{track: Track{Vertical: false, Index: from.Row}, entry: from.Col})
	}
	for _, n := range frontier {
		visited[n.track] = 0
	}
	for level := 0; len(frontier) > 0 && level <= maxCorners; level++ {
		res.levels = level
		for _, n := range frontier {
			if !isTarget(n.track) {
				continue
			}
			pos := to.Col
			if n.track.Vertical {
				pos = to.Row
			}
			if span, ok := clearSpan(n.track, n.entry); ok && span.Contains(pos) {
				res.paths = append(res.paths, path(n))
				if len(res.paths) >= maxPaths {
					break
				}
			}
		}
		if len(res.paths) > 0 {
			res.found = true
			res.corners = refCorners(res.paths[0])
			return res
		}
		var next []*refNode
		for _, n := range frontier {
			span, ok := clearSpan(n.track, n.entry)
			if !ok {
				continue
			}
			for q := span.Lo; q <= span.Hi; q++ {
				if q == n.entry {
					continue
				}
				child := Track{Vertical: !n.track.Vertical, Index: q}
				_, usable := clearSpan(child, n.track.Index)
				prev, seen := visited[child]
				refused := !isTarget(child) && seen && (prev < level+1 || !cfg.RelaxedVisit)
				switch {
				case refused && usable:
					res.refusedUsable++
				case refused:
					res.refusedBlocked++
				case usable:
					if !seen {
						visited[child] = level + 1
					}
					next = append(next, &refNode{track: child, entry: n.track.Index, parent: n})
					res.expanded++
				}
			}
		}
		frontier = next
	}
	return res
}

// refCorners counts the direction changes of a path.
func refCorners(pts []Point) int {
	n := 0
	for i := 1; i+1 < len(pts); i++ {
		inV := pts[i-1].Col == pts[i].Col
		outV := pts[i].Col == pts[i+1].Col
		if inV != outV {
			n++
		}
	}
	return n
}

// randomSurface draws an nx×ny grid, each at most 16, with up to a
// dozen rectangles blocked on the H layer, the V layer or both.
func randomSurface(t *testing.T, rng *rand.Rand) *grid.Grid {
	t.Helper()
	nx, ny := 2+rng.Intn(15), 2+rng.Intn(15)
	g, err := grid.Uniform(nx, ny, 1)
	if err != nil {
		t.Fatal(err)
	}
	masks := []grid.Mask{grid.MaskH, grid.MaskV, grid.MaskBoth}
	for k := rng.Intn(13); k > 0; k-- {
		x0, y0 := rng.Intn(nx), rng.Intn(ny)
		x1 := min(nx-1, x0+rng.Intn(4))
		y1 := min(ny-1, y0+rng.Intn(4))
		g.BlockRect(geom.R(x0, y0, x1, y1), masks[rng.Intn(len(masks))])
	}
	return g
}

// randomTerminal picks a point clear on both layers when a few draws
// find one.
func randomTerminal(rng *rand.Rand, g *grid.Grid) Point {
	p := Point{Col: rng.Intn(g.NX()), Row: rng.Intn(g.NY())}
	for try := 0; try < 20 && !g.PointFree(p.Col, p.Row); try++ {
		p = Point{Col: rng.Intn(g.NX()), Row: rng.Intn(g.NY())}
	}
	return p
}

// TestSearchMatchesReference runs Search and refSearch on random
// grids under both visit rules, every start choice and a default and a
// lifted MaxPaths. The paths, their order, Corners, Levels and
// Expanded must match, and Pruned must count every refusal of the
// visit rule, at usable and at blocked intersections alike.
func TestSearchMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	st := NewSearcher()
	var searches, found, refusedBlocked int
	for trial := 0; trial < 300; trial++ {
		g := randomSurface(t, rng)
		from, to := randomTerminal(rng, g), randomTerminal(rng, g)
		var window [2]geom.Interval
		if rng.Intn(2) == 0 {
			m := rng.Intn(3)
			window[0] = geom.Iv(min(from.Col, to.Col)-m, max(from.Col, to.Col)+m)
			window[1] = geom.Iv(min(from.Row, to.Row)-m, max(from.Row, to.Row)+m)
		}
		maxCorners := 0
		if rng.Intn(4) == 0 {
			maxCorners = 1 + rng.Intn(3)
		}
		for _, relaxed := range []bool{false, true} {
			for _, starts := range []Starts{StartBoth, StartVertical, StartHorizontal} {
				for _, maxPaths := range []int{0, 1 << 20} {
					cfg := Config{
						ColBounds: window[0], RowBounds: window[1],
						MaxCorners: maxCorners, RelaxedVisit: relaxed,
						Starts: starts, MaxPaths: maxPaths,
					}
					name := fmt.Sprintf("trial %d %dx%d %v->%v %+v", trial, g.NX(), g.NY(), from, to, cfg)
					want := refSearch(g, from, to, cfg)
					got, ok := st.Search(g, from, to, cfg)
					searches++
					if ok != want.found {
						t.Fatalf("%s: found = %v, reference %v", name, ok, want.found)
					}
					if want.sameTerm || want.outOfWindow {
						continue
					}
					if ok {
						found++
					}
					refusedBlocked += want.refusedBlocked
					compareReference(t, name, got, want)
				}
			}
		}
	}
	t.Logf("%d searches, %d found a path; %d refusals at blocked intersections", searches, found, refusedBlocked)
	if found == 0 || refusedBlocked == 0 {
		t.Error("the random family never found a path or never refused at a blocked intersection")
	}
}

func compareReference(t *testing.T, name string, got *Result, want refResult) {
	t.Helper()
	if len(got.Paths) != len(want.paths) {
		t.Fatalf("%s: %d paths, reference %d", name, len(got.Paths), len(want.paths))
	}
	for i, p := range got.Paths {
		if !slices.Equal(p.Points, want.paths[i]) {
			t.Fatalf("%s: path %d = %v, reference %v", name, i, p.Points, want.paths[i])
		}
	}
	if got.Corners != want.corners || got.Levels != want.levels || got.Expanded != want.expanded {
		t.Fatalf("%s: corners/levels/expanded = %d/%d/%d, reference %d/%d/%d", name,
			got.Corners, got.Levels, got.Expanded, want.corners, want.levels, want.expanded)
	}
	if refused := want.refusedUsable + want.refusedBlocked; got.Pruned != refused {
		t.Fatalf("%s: Pruned = %d, reference refused %d (%d usable, %d blocked)", name,
			got.Pruned, refused, want.refusedUsable, want.refusedBlocked)
	}
}
