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
	"overcell/internal/grid"
	"overcell/internal/obs"
	"overcell/internal/robust"
)

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
	n := 0
	for i := 1; i < len(p.Points)-1; i++ {
		if p.cornerAt(i) {
			n++
		}
	}
	return n
}

// AppendCorners appends the interior points where the path changes
// direction to dst and returns it. Callers that evaluate many
// candidate paths pass a reusable buffer.
//
//oc:hotpath
func (p Path) AppendCorners(dst []Point) []Point {
	for i := 1; i < len(p.Points)-1; i++ {
		if p.cornerAt(i) {
			dst = append(dst, p.Points[i])
		}
	}
	return dst
}

// cornerAt reports whether the path changes direction at interior
// point i.
func (p Path) cornerAt(i int) bool {
	a, b, c := p.Points[i-1], p.Points[i], p.Points[i+1]
	vertIn := a.Col == b.Col && a.Row != b.Row
	vertOut := b.Col == c.Col && b.Row != c.Row
	return vertIn != vertOut
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
	// grid.
	ColBounds, RowBounds geom.Interval
	// MaxCorners caps the BFS depth. Zero means DefaultMaxCorners.
	MaxCorners int
	// RelaxedVisit relaxes the paper's examine-each-vertex-once rule:
	// a non-target track may be re-entered at the level it was first
	// entered at, from a different parent, but still at no later level.
	// core.connect's last escalation rung runs it on the full grid, and
	// the ablation benchmarks compare it with the strict rule.
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
	// Pruned counts candidate tracks refused by the
	// examine-each-vertex-once rule — the effort the paper's pruning
	// avoids re-spending. The rule is applied before the intersection
	// is probed for usability, so a refusal counts whether or not the
	// intersection was blocked.
	Pruned int
	// Err is non-nil when the search was cut short by its work budget
	// or by cancellation (it matches robust.ErrBudgetExhausted or
	// robust.ErrCanceled); the search found no path *within budget*,
	// which is weaker than exhausting the window.
	Err error
}

// Search finds all minimum-corner paths from terminal `from` to
// terminal `to` on g. Both grid points must currently be clear on the
// grid (the router lifts the net's own terminals and shapes before
// searching). It returns nil and false when no path exists within the
// configured window and corner budget.
//
// Each call runs on a fresh Searcher, so the returned Result and
// everything it references stay valid indefinitely. Hot callers that
// issue many searches should hold their own Searcher and call its
// Search method to reuse the scratch memory.
func Search(g *grid.Grid, from, to Point, cfg Config) (*Result, bool) {
	var st Searcher
	return st.Search(g, from, to, cfg)
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
func (st *Searcher) Search(g *grid.Grid, from, to Point, cfg Config) (*Result, bool) {
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
		cb = geom.Iv(0, g.NX()-1)
		rb = geom.Iv(0, g.NY()-1)
	}
	cb = cb.Intersect(geom.Iv(0, g.NX()-1))
	rb = rb.Intersect(geom.Iv(0, g.NY()-1))
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

	st.prepare(g.NX(), g.NY())
	st.g, st.to, st.cb, st.rb = g, to, cb, rb
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
		st.mark(root.Track)
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
		if st.relaxed {
			// Close every track entered so far. A track the expansion
			// below enters is only seen: it stays open to the other
			// parents of its own level and closes before the next one.
			copy(st.closedV, st.seenV)
			copy(st.closedH, st.seenH)
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
// tree node arena, the per-direction track bitsets of the visit rule,
// the frontier queues, and the path reconstruction buffers. A Searcher
// is not safe for concurrent use; the router keeps one per Route call.
type Searcher struct {
	// Per-call search view.
	g        *grid.Grid
	to       Point
	cb, rb   geom.Interval
	relaxed  bool
	maxPaths int
	expanded int
	pruned   int
	budget   *robust.Budget
	err      error // first budget/cancellation error; stops the search

	// Reusable scratch, reset by prepare.
	arena nodeArena
	// closedV and closedH hold the tracks the visit rule refuses at
	// the level being expanded, one bit per vertical or horizontal
	// track. Under the relaxed rule a track is first recorded in seenV
	// or seenH and closes when the next level starts.
	closedV, closedH geom.Bits
	seenV, seenH     geom.Bits
	roots            []*Node
	frontier         []*Node
	next             []*Node
	done             []Path
	chain            []*Node
	pts              []Point // path-point arena; each reconstructed path is a capped window
}

// prepare resets the searcher for a new run, sizing the track bitsets
// to the grid's track counts and clearing them: one word per 64
// tracks, so the reset costs a few words per direction.
func (st *Searcher) prepare(nx, ny int) {
	st.closedV = st.closedV.Reset(nx)
	st.closedH = st.closedH.Reset(ny)
	st.seenV = st.seenV.Reset(nx)
	st.seenH = st.seenH.Reset(ny)
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
		return st.g.VClearSpan(n.Track.Index, n.Entry, st.rb)
	}
	return st.g.HClearSpan(n.Track.Index, n.Entry, st.cb)
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
// The rule is a bit test and refuses most candidates, so it runs first:
// the scan jumps from one open track to the next a word at a time, and
// the refusals it skips are counted per span by popcount. Only an open
// track pays for the usability probe, a point test at its corner, and
// only a usable one is marked.
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
	level := n.Level + 1
	entry := n.Track.Index
	vertical := !n.Track.Vertical
	closed := st.closedH
	if vertical {
		closed = st.closedV
	}
	// Every closed track of the span is one refusal, except the entry
	// track: a corner on top of the previous one is skipped unasked.
	// The strict rule closes tracks during the scan, but only behind it,
	// so counting before the scan counts what the scan refuses.
	st.pruned += closed.Count(span.Lo, span.Hi)
	if closed.Has(n.Entry) {
		st.pruned--
	}
	added := 0
	for q := closed.NextClear(span.Lo, span.Hi); q <= span.Hi; q = closed.NextClear(q+1, span.Hi) {
		if q == n.Entry {
			continue // zero-length run: a corner on top of the previous one
		}
		// Corner at the intersection of n's track with track q: n's
		// layer is clear along the span, and the point test adds q's.
		col, row := q, entry
		if !vertical {
			col, row = entry, q
		}
		if !st.g.PointFree(col, row) {
			continue
		}
		child := Track{Vertical: vertical, Index: q}
		st.mark(child)
		c := st.arena.alloc(child, entry, level, n)
		n.Children = append(n.Children, c)
		st.next = append(st.next, c)
		st.expanded++
		added++
	}
	if err := st.budget.Charge(added); err != nil {
		st.err = err
	}
}

// mark applies the examine-each-vertex-once rule to a track just
// entered. A target track never closes (the paper's "with the
// exception of the target vertices"). Under the strict rule a track
// closes at once, so no later parent re-enters it, at this level or
// any deeper one. Under the relaxed rule it is only seen, and closes
// when the next level starts, so other parents at its own level may
// still enter it. expand marks a track after its intersection proves
// usable, so a track met so far only at blocked intersections stays
// open to a later parent.
func (st *Searcher) mark(t Track) {
	if t.Vertical && t.Index == st.to.Col || !t.Vertical && t.Index == st.to.Row {
		return
	}
	switch {
	case t.Vertical && st.relaxed:
		st.seenV.Set(t.Index)
	case t.Vertical:
		st.closedV.Set(t.Index)
	case st.relaxed:
		st.seenH.Set(t.Index)
	default:
		st.closedH.Set(t.Index)
	}
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
