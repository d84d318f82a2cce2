// Package tig implements the Track Intersection Graph representation
// and the modified breadth-first search (MBFS) of Katsadas & Chen
// (DAC 1990, section 3.1).
//
// The solution space of a level B routing problem is an undirected
// bipartite graph G = (V, E): one vertex per vertical routing track,
// one per horizontal routing track, and an edge for every track
// intersection usable for routing. A path is a sequence of alternating
// horizontal and vertical track segments; every change of track is a
// corner (a via).
//
// For each two-terminal connection, two MBFS runs start from the two
// tracks of one terminal and share the two tracks of the other
// terminal as targets. Each non-target vertex is examined at most
// once, which excludes paths needing more than one corner on the same
// track — the paper's pruning rule that "improves the quality of the
// routing and significantly increases the speed of the algorithm". All
// complete paths with the minimum number of corners are collected in
// Path Selection Trees for the cost-based selection implemented in
// internal/core.
package tig

import (
	"fmt"

	"overcell/internal/geom"
	"overcell/internal/obs"
	"overcell/internal/robust"
)

// Surface is the occupancy oracle the search consults. *grid.Grid
// implements it; tests may substitute synthetic surfaces.
type Surface interface {
	// NX and NY return the number of vertical and horizontal tracks.
	NX() int
	NY() int
	// HClearSpan returns the maximal clear column span on the given
	// horizontal track that contains col, clipped to bounds; ok is
	// false when col itself is blocked there.
	HClearSpan(row, col int, bounds geom.Interval) (geom.Interval, bool)
	// VClearSpan is the vertical analogue.
	VClearSpan(col, row int, bounds geom.Interval) (geom.Interval, bool)
	// PointFree reports whether the grid point is clear on both
	// layers, i.e. the track intersection is usable for a corner.
	PointFree(col, row int) bool
}

// Point is a grid point in track index space.
type Point struct {
	Col, Row int
}

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(c%d,r%d)", p.Col, p.Row) }

// Track identifies one vertex of the Track Intersection Graph.
type Track struct {
	Vertical bool // true: vertical track (column), false: horizontal (row)
	Index    int
}

// String renders the paper's v_i / h_j vertex naming (1-based, as in
// Figure 1).
func (t Track) String() string {
	if t.Vertical {
		return fmt.Sprintf("v%d", t.Index+1)
	}
	return fmt.Sprintf("h%d", t.Index+1)
}

// Node is one vertex of a Path Selection Tree: a track reached by the
// search, the position along the track where it was entered (the
// corner shared with the parent's track, or the source terminal for a
// root), and tree links.
type Node struct {
	Track    Track
	Entry    int // row index for vertical tracks, column index for horizontal
	Level    int // number of corners consumed to enter this track
	Parent   *Node
	Children []*Node
}

// Corner returns the grid point where the node's track was entered.
// For a root node this is the source terminal itself.
func (n *Node) Corner() Point {
	if n.Track.Vertical {
		return Point{Col: n.Track.Index, Row: n.Entry}
	}
	return Point{Col: n.Entry, Row: n.Track.Index}
}

// Path is one candidate realisation of a two-terminal connection:
// the source terminal, the corner sequence, and the target terminal,
// all in track index space. Consecutive points share a column or a
// row; segments alternate between vertical and horizontal runs.
type Path struct {
	Points []Point
}

// Corners returns the number of direction changes (vias) of the path.
func (p Path) Corners() int {
	if len(p.Points) < 3 {
		return 0
	}
	n := 0
	for i := 1; i < len(p.Points)-1; i++ {
		a, b, c := p.Points[i-1], p.Points[i], p.Points[i+1]
		vertIn := a.Col == b.Col && a.Row != b.Row
		vertOut := b.Col == c.Col && b.Row != c.Row
		if vertIn != vertOut {
			n++
		}
	}
	return n
}

// CornerPoints returns the interior points where the path changes
// direction. The path selector calls it once per candidate inside its
// bounding loop, so the result is sized up front.
//
//oc:hotpath
func (p Path) CornerPoints() []Point {
	if len(p.Points) < 3 {
		return nil
	}
	out := make([]Point, 0, len(p.Points)-2)
	for i := 1; i < len(p.Points)-1; i++ {
		a, b, c := p.Points[i-1], p.Points[i], p.Points[i+1]
		vertIn := a.Col == b.Col && a.Row != b.Row
		vertOut := b.Col == c.Col && b.Row != c.Row
		if vertIn != vertOut {
			out = append(out, b)
		}
	}
	return out
}

// AppendCorners appends the interior direction-change points to dst
// and returns it, the allocation-free form of CornerPoints for callers
// that evaluate many candidate paths against a reusable buffer.
//
//oc:hotpath
func (p Path) AppendCorners(dst []Point) []Point {
	for i := 1; i < len(p.Points)-1; i++ {
		a, b, c := p.Points[i-1], p.Points[i], p.Points[i+1]
		vertIn := a.Col == b.Col && a.Row != b.Row
		vertOut := b.Col == c.Col && b.Row != c.Row
		if vertIn != vertOut {
			dst = append(dst, b)
		}
	}
	return dst
}

// Validate checks the structural invariants of a path: at least two
// points, endpoints matching from/to, every segment axis-parallel and
// axes alternating.
func (p Path) Validate(from, to Point) error {
	if len(p.Points) < 2 {
		return fmt.Errorf("tig: path has %d points; need at least 2", len(p.Points))
	}
	if p.Points[0] != from {
		return fmt.Errorf("tig: path starts at %v, want %v", p.Points[0], from)
	}
	if p.Points[len(p.Points)-1] != to {
		return fmt.Errorf("tig: path ends at %v, want %v", p.Points[len(p.Points)-1], to)
	}
	for i := 1; i < len(p.Points); i++ {
		a, b := p.Points[i-1], p.Points[i]
		if a == b {
			return fmt.Errorf("tig: zero-length segment at index %d (%v)", i, a)
		}
		if a.Col != b.Col && a.Row != b.Row {
			return fmt.Errorf("tig: diagonal segment %v -> %v", a, b)
		}
	}
	return nil
}

// Config tunes a search.
type Config struct {
	// ColBounds and RowBounds clip the solution space to a window in
	// track index space (the paper's rectangular region "I_n" defined
	// by the two terminal locations). Zero-value bounds mean the full
	// surface.
	ColBounds, RowBounds geom.Interval
	// MaxCorners caps the BFS depth. Zero means DefaultMaxCorners.
	MaxCorners int
	// RelaxedVisit disables the paper's examine-each-vertex-once rule,
	// allowing a non-target track to be re-entered at the same BFS
	// level from a different parent. Used by the ablation benchmarks.
	RelaxedVisit bool
	// MaxPaths caps how many minimum-corner paths are collected.
	// Zero means DefaultMaxPaths.
	MaxPaths int
	// Starts selects which of the two MBFS start tracks run. The
	// default runs both in one level-synchronised frontier, which is
	// equivalent to the paper's two searches followed by taking the
	// minimum. Restricting to one start reproduces the per-search path
	// sets of the paper's Figure 2.
	Starts Starts
	// Tracer, when enabled, receives one obs.EvMBFS event per Search
	// call summarising levels, expansions, prunes and paths found. Nil
	// means no tracing.
	Tracer obs.Tracer
	// Budget meters the search: every path-selection-tree node created
	// is charged against it, so a hostile window cannot make one
	// search run unbounded. When the budget trips mid-search the
	// search stops, Result.Err carries the typed cause
	// (robust.ErrBudgetExhausted or robust.ErrCanceled) and Search
	// reports failure. Nil means unbounded.
	Budget *robust.Budget
}

// Starts selects the MBFS start tracks.
type Starts int

// Start-track choices.
const (
	StartBoth Starts = iota
	StartVertical
	StartHorizontal
)

// Search limits.
const (
	DefaultMaxCorners = 24
	DefaultMaxPaths   = 64
)

// Result holds the outcome of a two-terminal search.
type Result struct {
	// Paths are all discovered connections with the minimum corner
	// count (up to MaxPaths), each beginning at the source terminal
	// and ending at the target terminal.
	Paths []Path
	// Corners is that minimum count.
	Corners int
	// Trees are the Path Selection Trees: one root per MBFS start
	// track (at most two). Retained for cost evaluation and for the
	// Figure 2 rendering.
	Trees []*Node
	// Expanded counts search-tree nodes created, for the complexity
	// benchmarks.
	Expanded int
	// Levels is the number of corner levels the frontier advanced
	// through before completing or exhausting the window.
	Levels int
	// Pruned counts expansions rejected by the examine-each-vertex-once
	// rule — the effort the paper's pruning avoids re-spending.
	Pruned int
	// Err is non-nil when the search was cut short by its work budget
	// or by cancellation (it matches robust.ErrBudgetExhausted or
	// robust.ErrCanceled); the search found no path *within budget*,
	// which is weaker than exhausting the window.
	Err error
}

// Search finds all minimum-corner paths from terminal `from` to
// terminal `to` on s. Both grid points must currently be clear on the
// surface (the router lifts the net's own terminals and shapes before
// searching). It returns nil and false when no path exists within the
// configured window and corner budget.
//
// Each call runs on a fresh Searcher, so the returned Result and
// everything it references stay valid indefinitely. Hot callers that
// issue many searches should hold their own Searcher and call its
// Search method to reuse the scratch memory.
func Search(s Surface, from, to Point, cfg Config) (*Result, bool) {
	var st Searcher
	return st.Search(s, from, to, cfg)
}

// NewSearcher returns a reusable searcher. The zero value is also
// ready to use.
func NewSearcher() *Searcher { return &Searcher{} }

// Search runs one MBFS on the searcher's reusable scratch memory.
// Semantics are identical to the package-level Search with one
// lifetime caveat: the returned Result (its Paths, their Points, and
// Trees) aliases the searcher's arenas and is only valid until the
// next call to Search on the same Searcher. The level-B router
// consumes each result before issuing the next search; callers that
// retain results across searches must use the package-level Search.
func (st *Searcher) Search(s Surface, from, to Point, cfg Config) (*Result, bool) {
	if from == to {
		return &Result{Paths: []Path{{Points: []Point{from}}}}, true
	}
	// One liveness poll per search: Charge amortises context/clock
	// polling over pollStride expansions, so a search smaller than the
	// stride would otherwise never observe cancellation.
	if err := cfg.Budget.Err(); err != nil {
		return &Result{Err: err}, false
	}
	cb := cfg.ColBounds
	rb := cfg.RowBounds
	if cb == (geom.Interval{}) && rb == (geom.Interval{}) {
		cb = geom.Iv(0, s.NX()-1)
		rb = geom.Iv(0, s.NY()-1)
	}
	cb = cb.Intersect(geom.Iv(0, s.NX()-1))
	rb = rb.Intersect(geom.Iv(0, s.NY()-1))
	if !cb.Contains(from.Col) || !cb.Contains(to.Col) ||
		!rb.Contains(from.Row) || !rb.Contains(to.Row) {
		return nil, false
	}
	maxCorners := cfg.MaxCorners
	if maxCorners <= 0 {
		maxCorners = DefaultMaxCorners
	}
	maxPaths := cfg.MaxPaths
	if maxPaths <= 0 {
		maxPaths = DefaultMaxPaths
	}

	st.prepare(s.NX(), s.NY())
	st.s, st.to, st.cb, st.rb = s, to, cb, rb
	st.relaxed = cfg.RelaxedVisit
	st.maxPaths = maxPaths
	st.budget = cfg.Budget

	// Two MBFS runs from the same terminal: one starting on its
	// vertical track, one on its horizontal track (paper section 3.1).
	if cfg.Starts == StartBoth || cfg.Starts == StartVertical {
		st.roots = append(st.roots, st.arena.alloc(Track{Vertical: true, Index: from.Col}, from.Row, 0, nil))
	}
	if cfg.Starts == StartBoth || cfg.Starts == StartHorizontal {
		st.roots = append(st.roots, st.arena.alloc(Track{Vertical: false, Index: from.Row}, from.Col, 0, nil))
	}
	for _, root := range st.roots {
		st.mark(root.Track, 0)
	}
	st.frontier = append(st.frontier[:0], st.roots...)
	res := &Result{Trees: st.roots}
	tr := obs.OrNop(cfg.Tracer)
	finish := func(found bool) {
		res.Expanded = st.expanded
		res.Pruned = st.pruned
		if tr.Enabled() {
			tr.Emit(obs.Event{
				Type: obs.EvMBFS, Levels: res.Levels, Expanded: res.Expanded,
				Pruned: res.Pruned, Paths: len(res.Paths), Corners: res.Corners,
				Failed: !found,
			})
		}
	}
	for level := 0; len(st.frontier) > 0 && level <= maxCorners; level++ {
		res.Levels = level
		st.done = st.done[:0]
		for _, n := range st.frontier {
			if p, ok := st.complete(n, from); ok {
				st.done = append(st.done, p)
				if len(st.done) >= maxPaths {
					break
				}
			}
		}
		if len(st.done) > 0 {
			res.Paths = st.done
			res.Corners = st.done[0].Corners()
			finish(true)
			return res, true
		}
		st.next = st.next[:0]
		for _, n := range st.frontier {
			st.expand(n)
		}
		if st.err != nil {
			res.Err = st.err
			finish(false)
			return res, false
		}
		st.frontier, st.next = st.next, st.frontier
	}
	finish(false)
	return res, false
}

// Searcher owns the reusable scratch of an MBFS: the path-selection-
// tree node arena, the flat epoch-stamped visited arrays that replace
// a per-search map, the frontier queues, and the path reconstruction
// buffers. A Searcher is not safe for concurrent use; the router keeps
// one per Route call.
type Searcher struct {
	// Per-call search view.
	s        Surface
	to       Point
	cb, rb   geom.Interval
	relaxed  bool
	maxPaths int
	expanded int
	pruned   int
	budget   *robust.Budget
	err      error // first budget/cancellation error; stops the search

	// Reusable scratch, reset by prepare.
	arena     nodeArena
	visStampV []uint64 // per vertical track: epoch of last visit
	visStampH []uint64 // per horizontal track
	visLevelV []int    // level recorded at that visit
	visLevelH []int
	visEpoch  uint64
	roots     []*Node
	frontier  []*Node
	next      []*Node
	done      []Path
	chain     []*Node
	pts       []Point // path-point arena; each reconstructed path is a capped window
}

// prepare resets the searcher for a new run, growing the visited
// arrays to the surface's track counts if needed. Visited state is
// invalidated in O(1) by bumping the epoch.
func (st *Searcher) prepare(nx, ny int) {
	if len(st.visStampV) < nx {
		st.visStampV = make([]uint64, nx)
		st.visLevelV = make([]int, nx)
	}
	if len(st.visStampH) < ny {
		st.visStampH = make([]uint64, ny)
		st.visLevelH = make([]int, ny)
	}
	st.visEpoch++
	st.arena.reset()
	st.roots = st.roots[:0]
	st.frontier = st.frontier[:0]
	st.next = st.next[:0]
	st.done = st.done[:0]
	st.chain = st.chain[:0]
	st.pts = st.pts[:0]
	st.expanded, st.pruned = 0, 0
	st.err = nil
}

// arenaChunk is the node count per arena block. Blocks are kept and
// reused across searches; pointers into them stay stable because a
// block is never reallocated, only re-stamped.
const arenaChunk = 256

// nodeArena hands out tree nodes from reusable fixed-size blocks.
type nodeArena struct {
	chunks [][]Node
	ci, ni int // next free slot: chunks[ci][ni]
}

func (a *nodeArena) reset() { a.ci, a.ni = 0, 0 }

// alloc returns a node initialised to the given fields. The node's
// Children backing from a previous search is retained (truncated), so
// steady-state child appends do not allocate.
//
//oc:hotpath
func (a *nodeArena) alloc(t Track, entry, level int, parent *Node) *Node {
	if a.ci == len(a.chunks) {
		a.chunks = append(a.chunks, make([]Node, arenaChunk))
	}
	n := &a.chunks[a.ci][a.ni]
	a.ni++
	if a.ni == arenaChunk {
		a.ci++
		a.ni = 0
	}
	ch := n.Children[:0]
	*n = Node{Track: t, Entry: entry, Level: level, Parent: parent, Children: ch}
	return n
}

// span returns the maximal clear run of n's track around its entry
// point, clipped to the search window. ok is false when the entry
// itself is blocked (cannot happen for well-formed searches, but a
// root on a blocked terminal degrades to an empty search rather than
// a panic).
func (st *Searcher) span(n *Node) (geom.Interval, bool) {
	if n.Track.Vertical {
		return st.s.VClearSpan(n.Track.Index, n.Entry, st.rb)
	}
	return st.s.HClearSpan(n.Track.Index, n.Entry, st.cb)
}

// complete reports whether n's track runs straight to the target
// terminal, and if so reconstructs the full path.
func (st *Searcher) complete(n *Node, from Point) (Path, bool) {
	if n.Track.Vertical {
		if n.Track.Index != st.to.Col {
			return Path{}, false
		}
	} else if n.Track.Index != st.to.Row {
		return Path{}, false
	}
	span, ok := st.span(n)
	if !ok {
		return Path{}, false
	}
	pos := st.to.Row
	if !n.Track.Vertical {
		pos = st.to.Col
	}
	if !span.Contains(pos) {
		return Path{}, false
	}
	return st.reconstruct(n, from, st.to), true
}

// expand creates the children of n: every perpendicular track crossing
// n's clear span at a usable intersection, subject to the visit rule.
// Children are appended to the next-level frontier and charged against
// the search budget; once the budget trips, expansion stops producing
// work.
//
//oc:hotpath
func (st *Searcher) expand(n *Node) {
	if st.err != nil {
		return
	}
	span, ok := st.span(n)
	if !ok {
		return
	}
	added := 0
	for q := span.Lo; q <= span.Hi; q++ {
		if q == n.Entry {
			continue // zero-length run: a corner on top of the previous one
		}
		var child Track
		var entry int
		var usable bool
		if n.Track.Vertical {
			// Corner at (n.Track.Index, q); child is horizontal track q.
			child = Track{Vertical: false, Index: q}
			entry = n.Track.Index
			_, usable = st.s.HClearSpan(q, entry, st.cb)
		} else {
			child = Track{Vertical: true, Index: q}
			entry = n.Track.Index
			_, usable = st.s.VClearSpan(q, entry, st.rb)
		}
		if !usable {
			continue
		}
		if !st.admit(child, n.Level+1) {
			continue
		}
		c := st.arena.alloc(child, entry, n.Level+1, n)
		n.Children = append(n.Children, c)
		st.next = append(st.next, c)
		st.expanded++
		added++
	}
	if err := st.budget.Charge(added); err != nil {
		st.err = err
	}
}

// admit applies the examine-each-vertex-once rule: a non-target track
// already seen at an earlier (or, in strict mode, the same) level is
// not re-entered. Target tracks are always admitted (the paper's
// "with the exception of the target vertices"). Visited state lives in
// flat per-direction arrays stamped with the search epoch, replacing
// the per-search map the profile was dominated by.
//
//oc:hotpath
func (st *Searcher) admit(t Track, level int) bool {
	if (t.Vertical && t.Index == st.to.Col) || (!t.Vertical && t.Index == st.to.Row) {
		return true
	}
	stamp, lev := st.visStampH, st.visLevelH
	if t.Vertical {
		stamp, lev = st.visStampV, st.visLevelV
	}
	if stamp[t.Index] == st.visEpoch {
		prev := lev[t.Index]
		if prev < level {
			st.pruned++
			return false
		}
		if !st.relaxed {
			st.pruned++
			return false
		}
		return true
	}
	stamp[t.Index] = st.visEpoch
	lev[t.Index] = level
	return true
}

// mark records a track as visited at the given level.
func (st *Searcher) mark(t Track, level int) {
	if t.Vertical {
		st.visStampV[t.Index] = st.visEpoch
		st.visLevelV[t.Index] = level
		return
	}
	st.visStampH[t.Index] = st.visEpoch
	st.visLevelH[t.Index] = level
}

// reconstruct walks the parent chain of a completing node and builds
// the full path from source terminal to target terminal, dropping
// duplicate consecutive points (for example when the last corner
// coincides with the target). Points are carved out of the searcher's
// point arena as a capacity-capped window, so reconstruction does not
// allocate once the arena has warmed up; the window is immutable to
// callers by construction (appending to it forces a copy).
//
//oc:hotpath
func (st *Searcher) reconstruct(n *Node, from, to Point) Path {
	st.chain = st.chain[:0]
	for c := n; c != nil; c = c.Parent {
		st.chain = append(st.chain, c)
	}
	start := len(st.pts)
	st.pts = append(st.pts, from)
	for i := len(st.chain) - 2; i >= 0; i-- { // skip root: its corner is the terminal
		st.pts = append(st.pts, st.chain[i].Corner())
	}
	st.pts = append(st.pts, to)
	// Dedupe consecutive duplicates in place within the window.
	out := st.pts[:start+1]
	for _, p := range st.pts[start+1:] {
		if p != out[len(out)-1] {
			out = append(out, p)
		}
	}
	st.pts = out
	return Path{Points: out[start:len(out):len(out)]}
}
