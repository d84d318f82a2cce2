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
	multiWordSpans        int // expanded spans across three or more 64-track words
	outOfWindow, sameTerm bool
}

// refSearch is a plain level-synchronised MBFS with the semantics of
// Search: visited tracks in a map, tree nodes on the heap, no budget.
// For each candidate it probes the intersection first and then applies
// the visit rule, and it counts every refusal, usable or not.
func refSearch(g *grid.Grid, from, to Point, cfg Config) refResult {
	if from == to {
		return refResult{found: true, sameTerm: true}
	}
	cb, rb := cfg.ColBounds, cfg.RowBounds
	if cb == (geom.Interval{}) && rb == (geom.Interval{}) {
		cb, rb = geom.Iv(0, g.NX()-1), geom.Iv(0, g.NY()-1)
	}
	cb = cb.Intersect(geom.Iv(0, g.NX()-1))
	rb = rb.Intersect(geom.Iv(0, g.NY()-1))
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
			return g.VClearSpan(t.Index, at, rb)
		}
		return g.HClearSpan(t.Index, at, cb)
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
			if span.Hi/64-span.Lo/64 >= 2 {
				res.multiWordSpans++
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

// wideSurface draws a grid 60 to 200 tracks one way and 2 to 16 the
// other, with up to eight rectangles up to 64 tracks long and 1 to 3
// thick blocked on one layer or both, and up to 40 points blocked on
// one layer. Its clear spans and its runs of visited tracks cross
// several 64-track words of the search's bitsets, and the points leave
// unvisited tracks scattered through those runs: a track whose
// intersection with the first track is blocked stays open to a later
// parent.
func wideSurface(t *testing.T, rng *rand.Rand) *grid.Grid {
	t.Helper()
	long, short := 60+rng.Intn(141), 2+rng.Intn(15)
	vertical := rng.Intn(2) == 0 // the long direction runs down the rows
	nx, ny := long, short
	if vertical {
		nx, ny = short, long
	}
	g, err := grid.Uniform(nx, ny, 1)
	if err != nil {
		t.Fatal(err)
	}
	masks := []grid.Mask{grid.MaskH, grid.MaskV, grid.MaskBoth}
	for k := rng.Intn(9); k > 0; k-- {
		a, b := rng.Intn(long), rng.Intn(short)
		a1, b1 := min(long-1, a+rng.Intn(64)), min(short-1, b+rng.Intn(3))
		r := geom.R(a, b, a1, b1)
		if vertical {
			r = geom.R(b, a, b1, a1)
		}
		g.BlockRect(r, masks[rng.Intn(len(masks))])
	}
	for k := rng.Intn(41); k > 0; k-- {
		c, r := rng.Intn(nx), rng.Intn(ny)
		g.BlockRect(geom.R(c, r, c, r), masks[rng.Intn(2)])
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

// searchFamily is a family of random searches: grids drawn by one
// generator from a fixed seed.
type searchFamily struct {
	name  string
	seed  int64
	grids int
	draw  func(*testing.T, *rand.Rand) *grid.Grid
}

var searchFamilies = []searchFamily{
	{name: "small", seed: 20, grids: 300, draw: randomSurface},
	{name: "wide", seed: 21, grids: 200, draw: wideSurface},
}

// each draws the family's grids with two terminals, a window around
// them or none, and a corner cap or none, and calls f on each grid
// under both visit rules, every start choice and a default and a
// lifted MaxPaths.
func (fam searchFamily) each(t *testing.T, f func(name string, g *grid.Grid, from, to Point, cfg Config)) {
	t.Helper()
	rng := rand.New(rand.NewSource(fam.seed))
	for trial := 0; trial < fam.grids; trial++ {
		g := fam.draw(t, rng)
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
					name := fmt.Sprintf("%s trial %d %dx%d %v->%v %+v", fam.name, trial, g.NX(), g.NY(), from, to, cfg)
					f(name, g, from, to, cfg)
				}
			}
		}
	}
}

// TestSearchMatchesReference runs Search and refSearch on the random
// families under both visit rules, every start choice and a default
// and a lifted MaxPaths. The paths, their order, Corners, Levels and
// Expanded must match, and Pruned must count every refusal of the
// visit rule, at usable and at blocked intersections alike. The wide
// family holds the word-at-a-time scan and count of refused tracks to
// the reference across word boundaries.
func TestSearchMatchesReference(t *testing.T) {
	st := NewSearcher()
	for _, fam := range searchFamilies {
		t.Run(fam.name, func(t *testing.T) {
			var searches, found, refusedBlocked, multiWord int
			fam.each(t, func(name string, g *grid.Grid, from, to Point, cfg Config) {
				want := refSearch(g, from, to, cfg)
				got, ok := st.Search(g, from, to, cfg)
				searches++
				if !compareReference(t, name, got, ok, want) {
					return
				}
				if ok {
					found++
				}
				refusedBlocked += want.refusedBlocked
				multiWord += want.multiWordSpans
			})
			t.Logf("%d searches, %d found a path; %d refusals at blocked intersections; %d spans across three or more words",
				searches, found, refusedBlocked, multiWord)
			if found == 0 || refusedBlocked == 0 {
				t.Error("the family never found a path or never refused at a blocked intersection")
			}
			if fam.name == "wide" && multiWord == 0 {
				t.Error("the wide family never expanded a span across three or more 64-track words")
			}
		})
	}
}

// TestSearchExaminesEachTrackOnce walks the Path Selection Trees of
// every search of the random families. Under the strict rule no
// non-target track appears in two nodes; under the relaxed rule all
// the nodes of one non-target track share one level. refSearch reads
// the rule as Search does, so this checks the closing of tracks from
// outside both.
func TestSearchExaminesEachTrackOnce(t *testing.T) {
	st := NewSearcher()
	for _, fam := range searchFamilies {
		t.Run(fam.name, func(t *testing.T) {
			nodes := 0
			fam.each(t, func(name string, g *grid.Grid, from, to Point, cfg Config) {
				if res, _ := st.Search(g, from, to, cfg); res != nil {
					nodes += checkExamineOnce(t, name, res, to, cfg.RelaxedVisit)
				}
			})
			if nodes == 0 {
				t.Error("no search built a tree")
			}
		})
	}
}

// checkExamineOnce walks res.Trees and fails t when a non-target track
// appears in two nodes (strict rule) or at two levels (relaxed rule).
// It returns the number of nodes walked.
func checkExamineOnce(t *testing.T, name string, res *Result, to Point, relaxed bool) int {
	t.Helper()
	level := map[Track]int{}
	nodes := 0
	var walk func(n *Node)
	walk = func(n *Node) {
		nodes++
		target := n.Track.Vertical && n.Track.Index == to.Col || !n.Track.Vertical && n.Track.Index == to.Row
		if prev, seen := level[n.Track]; seen && !target {
			if !relaxed {
				t.Fatalf("%s: track %v entered twice, at levels %d and %d", name, n.Track, prev, n.Level)
			}
			if prev != n.Level {
				t.Fatalf("%s: track %v entered at levels %d and %d", name, n.Track, prev, n.Level)
			}
		}
		level[n.Track] = n.Level
		for _, c := range n.Children {
			walk(c)
		}
	}
	for _, root := range res.Trees {
		walk(root)
	}
	return nodes
}

// FuzzSearchMatchesReference holds Search to refSearch, and its trees
// to the visit rule, on grids decoded from the fuzz input. The first
// two bytes size the grid: 2 to 200 tracks one way and 2 to 16 the
// other. A flag byte picks which way is long, the visit rule, the
// start tracks, a lifted MaxPaths and a window; the next bytes give
// the window margin (0 to 3), a corner cap (0 for the default, else 1
// to 4) and the two terminals. Every further five bytes block a
// rectangle: its corner, its extent along each axis and its layers.
func FuzzSearchMatchesReference(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{8, 8, 0x00, 0, 0, 1, 1, 6, 6})
	f.Add([]byte{198, 6, 0x22, 1, 0, 3, 2, 190, 4, 40, 1, 60, 1, 1, 100, 3, 30, 0, 2})
	f.Add([]byte{150, 12, 0x1f, 2, 2, 140, 1, 5, 10, 20, 5, 70, 2, 0, 70, 0, 8, 60, 1, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		data = append(data, make([]byte, 9)...) // pad the header
		long, short := 2+int(data[0])%199, 2+int(data[1])%15
		flags := data[2]
		nx, ny := long, short
		if flags&0x01 != 0 {
			nx, ny = short, long
		}
		g, err := grid.Uniform(nx, ny, 1)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{
			RelaxedVisit: flags&0x02 != 0,
			Starts:       Starts(int(flags>>2&0x03) % 3),
		}
		if flags&0x10 != 0 {
			cfg.MaxPaths = 1 << 20
		}
		if c := int(data[4]) % 5; c > 0 {
			cfg.MaxCorners = c
		}
		from := Point{Col: int(data[5]) % nx, Row: int(data[6]) % ny}
		to := Point{Col: int(data[7]) % nx, Row: int(data[8]) % ny}
		if flags&0x20 != 0 {
			m := int(data[3]) % 4
			cfg.ColBounds = geom.Iv(min(from.Col, to.Col)-m, max(from.Col, to.Col)+m)
			cfg.RowBounds = geom.Iv(min(from.Row, to.Row)-m, max(from.Row, to.Row)+m)
		}
		masks := []grid.Mask{grid.MaskH, grid.MaskV, grid.MaskBoth}
		for rest := data[9:]; len(rest) >= 5; rest = rest[5:] {
			x0, y0 := int(rest[0])%nx, int(rest[1])%ny
			x1, y1 := min(nx-1, x0+int(rest[2])%nx), min(ny-1, y0+int(rest[3])%ny)
			g.BlockRect(geom.R(x0, y0, x1, y1), masks[int(rest[4])%len(masks)])
		}
		name := fmt.Sprintf("%dx%d %v->%v %+v", nx, ny, from, to, cfg)
		got, ok := Search(g, from, to, cfg)
		if compareReference(t, name, got, ok, refSearch(g, from, to, cfg)) {
			checkExamineOnce(t, name, got, to, cfg.RelaxedVisit)
		}
	})
}

// compareReference fails t where Search's result and success differ
// from the reference's. It reports false when the case stopped before
// any search (identical terminals, or terminals outside the window),
// which leaves nothing more to compare.
func compareReference(t *testing.T, name string, got *Result, ok bool, want refResult) bool {
	t.Helper()
	if ok != want.found {
		t.Fatalf("%s: found = %v, reference %v", name, ok, want.found)
	}
	if want.sameTerm || want.outOfWindow {
		return false
	}
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
	return true
}
