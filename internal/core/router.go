package core

import (
	"errors"
	"fmt"
	"sort"

	"overcell/internal/geom"
	"overcell/internal/grid"
	"overcell/internal/netlist"
	"overcell/internal/obs"
	"overcell/internal/robust"
	"overcell/internal/tig"
)

// Segment is one routed wire span in track index space: a horizontal
// segment runs on LayerH along row Track from column Lo to Hi; a
// vertical segment runs on LayerV along column Track from row Lo to
// Hi.
type Segment struct {
	Horizontal bool
	Track      int
	Lo, Hi     int
}

// NetRoute is the realised geometry and metrics of one net.
type NetRoute struct {
	Net       *netlist.Net
	Terminals []tig.Point // snapped terminal grid points
	Segments  []Segment
	Vias      []tig.Point // corner and T-junction vias (terminal stacks excluded)
	// WireLength is the total metal length in layout units, with
	// overlapping re-routes of the same net deduplicated.
	WireLength int
	// Corners is the total number of direction changes over all
	// two-terminal connections of the net.
	Corners int
	// Expanded counts the search-tree nodes created by the routing
	// attempt that produced this route (the per-net share of
	// Result.Expanded's cumulative total).
	Expanded int
	// Escalations counts the completion-ladder steps the attempt
	// consumed beyond the initial window, over all of the net's
	// two-terminal connections; 0 means every connection completed in
	// its first bounding-box window.
	Escalations int
	// Err is non-nil when the net could not be completed; Segments
	// then holds whatever partial tree was committed.
	Err error
}

// Result aggregates a routing run.
type Result struct {
	Routes     []*NetRoute // in routing order
	WireLength int         // layout units, all nets
	Vias       int         // corner + junction vias, all nets
	Corners    int
	Failed     int // nets with Err != nil
	// Expanded is the total number of search-tree nodes created, the
	// empirical counterpart of the paper's O(n·h·v) bound.
	Expanded int
}

// Router routes level B nets on a shared grid. The grid may already
// contain obstacles (from grid.BlockRect) and previously committed
// routing; a Router does not take ownership of it. A Router is not
// safe for concurrent use: Route mutates the grid and reuses the
// router's search scratch.
type Router struct {
	g    *grid.Grid
	cfg  Config
	tr   obs.Tracer
	eval costEvaluator
	// search is the reusable TIG searcher: every two-terminal
	// connection of every net runs on the same scratch arenas. A Search
	// invalidates the previous Search's result memory, which is safe
	// because connect/selectBest/addPath consume each result fully
	// before the next search starts.
	search *tig.Searcher
}

// New returns a router over g.
func New(g *grid.Grid, cfg Config) *Router {
	return &Router{
		g: g, cfg: cfg, tr: cfg.tracer(),
		eval:   newCostEvaluator(g, cfg.Weights),
		search: tig.NewSearcher(),
	}
}

// Route routes the given nets and commits their metal to the grid.
// Terminal positions are snapped to the nearest tracks. Route returns
// an error for structurally invalid input (terminal collisions between
// different nets, wrapping robust.ErrInvalidInput) and when a sticky
// budget condition — total expansion cap, deadline, cancellation —
// stops the run; in the sticky case the partial Result is returned
// alongside the error, with every unattempted net carrying the typed
// cause in its NetRoute.Err. Per-net routing failures (including
// per-net budget exhaustion) are reported in the Result and do not
// abort the run.
func (r *Router) Route(nets []*netlist.Net) (*Result, error) {
	termPts, err := r.snapTerminals(nets)
	if err != nil {
		return nil, err
	}
	// Register every terminal before any routing: terminals block both
	// layers (their via stacks) and feed the unrouted-terminal
	// proximity term of the cost function.
	for _, net := range nets {
		for _, p := range termPts[net.ID] {
			r.g.MarkTerminal(p.Col, p.Row)
		}
	}
	res := &Result{}
	ordered := orderNets(nets, r.cfg.Order)
	ranks := make(map[netlist.NetID]int, len(ordered))
	for i, net := range ordered {
		ranks[net.ID] = i + 1
	}
	routes := make(map[netlist.NetID]*NetRoute, len(nets))
	shapes := make(map[netlist.NetID]*shape, len(nets))
	sticky := r.routeAllSerial(ordered, termPts, routes, shapes, res)
	if sticky == nil {
		r.recover(ordered, termPts, ranks, routes, shapes, res)
		sticky = r.cfg.Budget.Err() // a trip during recovery still surfaces
	}
	for _, net := range ordered {
		nr := routes[net.ID]
		res.Routes = append(res.Routes, nr)
		res.WireLength += nr.WireLength
		res.Vias += len(nr.Vias)
		res.Corners += nr.Corners
		if nr.Err != nil {
			res.Failed++
		}
	}
	if sticky != nil {
		return res, robust.Wrap("level-b", "", sticky)
	}
	return res, nil
}

// routeAllSerial is the first pass: one net at a time in routing order,
// the paper's serial level B loop.
func (r *Router) routeAllSerial(ordered []*netlist.Net,
	termPts map[netlist.NetID][]tig.Point,
	routes map[netlist.NetID]*NetRoute, shapes map[netlist.NetID]*shape,
	res *Result) error {
	var sticky error
	for rank, net := range ordered {
		if sticky = r.pollSticky(sticky); sticky != nil {
			routes[net.ID] = skippedRoute(net, termPts[net.ID], sticky)
			continue
		}
		nr, sh := r.routeNet(net, termPts[net.ID], res, rank+1)
		routes[net.ID] = nr
		shapes[net.ID] = sh
	}
	return sticky
}

// pollSticky folds the budget's run-level state into sticky, emitting
// the run-level EvBudget event once on the first trip. The first pass
// calls it before every net.
func (r *Router) pollSticky(sticky error) error {
	if sticky != nil {
		return sticky
	}
	if sticky = r.cfg.Budget.Err(); sticky != nil && r.tr.Enabled() {
		r.tr.Emit(obs.Event{
			Type: obs.EvBudget, Phase: "level-b",
			Expanded: int(r.cfg.Budget.Used()), Failed: true,
		})
	}
	return sticky
}

// skippedRoute marks a net that was never attempted because a sticky
// budget condition ended the run first.
func skippedRoute(net *netlist.Net, terms []tig.Point, cause error) *NetRoute {
	return &NetRoute{
		Net: net, Terminals: terms,
		Err: robust.Wrap("level-b", net.Name, cause),
	}
}

// recover runs bounded rip-up-and-reroute passes: every net that could
// not complete lifts a set of committed nets out of its congestion
// window, takes the freed space first, and the lifted nets re-route
// after it. Passes repeat while they make progress.
func (r *Router) recover(ordered []*netlist.Net,
	termPts map[netlist.NetID][]tig.Point, ranks map[netlist.NetID]int,
	routes map[netlist.NetID]*NetRoute, shapes map[netlist.NetID]*shape,
	res *Result) {
	for pass := 0; pass < r.cfg.ripupPasses(); pass++ {
		if r.cfg.Budget.Err() != nil {
			return
		}
		progress := false
		attempts := 0
		for _, net := range ordered {
			if routes[net.ID].Err == nil {
				continue
			}
			if r.cfg.Budget.Err() != nil {
				return
			}
			attempts++
			if r.retryWithRipup(net, ordered, termPts, ranks, routes, shapes, res) {
				progress = true
			}
		}
		if r.tr.Enabled() {
			failed := 0
			for _, net := range ordered {
				if routes[net.ID].Err != nil {
					failed++
				}
			}
			r.tr.Emit(obs.Event{Type: obs.EvRipupPass, Step: pass, Victims: attempts, Paths: failed})
		}
		if !progress {
			return
		}
	}
}

// retryWithRipup attempts to complete one failed net by freeing its
// congestion window. It reports whether the net now routes.
func (r *Router) retryWithRipup(net *netlist.Net, ordered []*netlist.Net,
	termPts map[netlist.NetID][]tig.Point, ranks map[netlist.NetID]int,
	routes map[netlist.NetID]*NetRoute, shapes map[netlist.NetID]*shape,
	res *Result) bool {
	terms := termPts[net.ID]
	if len(terms) == 0 {
		return false
	}
	const margin = 8
	cols := geom.Iv(terms[0].Col, terms[0].Col)
	rows := geom.Iv(terms[0].Row, terms[0].Row)
	for _, p := range terms[1:] {
		cols = geom.Iv(geom.Min(cols.Lo, p.Col), geom.Max(cols.Hi, p.Col))
		rows = geom.Iv(geom.Min(rows.Lo, p.Row), geom.Max(rows.Hi, p.Row))
	}
	cols = geom.Iv(cols.Lo-margin, cols.Hi+margin).Intersect(geom.Iv(0, r.g.NX()-1))
	rows = geom.Iv(rows.Lo-margin, rows.Hi+margin).Intersect(geom.Iv(0, r.g.NY()-1))

	// Victims: committed nets with metal inside the window. Nets merely
	// passing through (no terminal inside) are preferred — they can
	// detour around the window, while nets pinned inside it cannot.
	type victim struct {
		net     *netlist.Net
		passing bool
	}
	var victims []victim
	for _, cand := range ordered {
		if cand.ID == net.ID || routes[cand.ID].Err != nil {
			continue
		}
		sh := shapes[cand.ID]
		if sh == nil || !sh.intersects(cols, rows) {
			continue
		}
		passing := true
		for _, p := range termPts[cand.ID] {
			if cols.Contains(p.Col) && rows.Contains(p.Row) {
				passing = false
				break
			}
		}
		victims = append(victims, victim{cand, passing})
	}
	if len(victims) == 0 {
		return false // nothing to free: the window is blocked by obstacles alone
	}
	sort.SliceStable(victims, func(i, j int) bool {
		if victims[i].passing != victims[j].passing {
			return victims[i].passing
		}
		hi, hj := victims[i].net.HalfPerimeter(), victims[j].net.HalfPerimeter()
		if hi != hj {
			return hi > hj
		}
		return victims[i].net.ID < victims[j].net.ID
	})
	if maxVictims := r.cfg.ripupVictims(); len(victims) > maxVictims {
		victims = victims[:maxVictims]
	}

	r.liftNet(net.ID, termPts, shapes)
	for _, v := range victims {
		r.liftNet(v.net.ID, termPts, shapes)
	}
	// The stuck net routes first into the freed window, then the
	// victims re-route in their original serial order. Every retry
	// keeps the net's original 1-based rank so trace events stay
	// attributable to the net's position in the routing order.
	nr, sh := r.routeNet(net, terms, res, ranks[net.ID])
	routes[net.ID], shapes[net.ID] = nr, sh
	lifted := make(map[netlist.NetID]bool, len(victims))
	for _, v := range victims {
		lifted[v.net.ID] = true
	}
	for _, cand := range ordered {
		if !lifted[cand.ID] {
			continue
		}
		vnr, vsh := r.routeNet(cand, termPts[cand.ID], res, ranks[cand.ID])
		routes[cand.ID], shapes[cand.ID] = vnr, vsh
	}
	ok := routes[net.ID].Err == nil
	if r.tr.Enabled() {
		r.tr.Emit(obs.Event{Type: obs.EvRipup, Net: net.Name, Victims: len(victims), Failed: !ok})
	}
	return ok
}

// liftNet removes a net's committed metal from the grid (its terminal
// stacks stay blocked: terminal positions are fixed geometry).
func (r *Router) liftNet(id netlist.NetID, termPts map[netlist.NetID][]tig.Point, shapes map[netlist.NetID]*shape) {
	if sh := shapes[id]; sh != nil {
		sh.lift(r.g)
	}
	// Lifting spans can erase the blockage of coincident terminal
	// points (interval sets hold no reference counts); restore it.
	for _, p := range termPts[id] {
		r.g.BlockPoint(p.Col, p.Row)
	}
}

// snapTerminals maps every net terminal to a grid point and checks
// that no two nets land on the same point. Duplicate points within
// one net (coarse grids) are collapsed.
func (r *Router) snapTerminals(nets []*netlist.Net) (map[netlist.NetID][]tig.Point, error) {
	owner := make(map[tig.Point]*netlist.Net)
	out := make(map[netlist.NetID][]tig.Point, len(nets))
	for _, net := range nets {
		seen := make(map[tig.Point]bool, len(net.Terminals))
		var pts []tig.Point
		for _, t := range net.Terminals {
			p := tig.Point{
				Col: r.g.NearestCol(t.Pos.X),
				Row: r.g.NearestRow(t.Pos.Y),
			}
			if seen[p] {
				continue
			}
			seen[p] = true
			if prev, clash := owner[p]; clash && prev != net {
				return nil, robust.Invalidf("core: nets %q and %q share terminal grid point %v",
					prev.Name, net.Name, p)
			}
			// The point must be free right now: occupied points carry an
			// obstacle, a previous batch's metal, or a previous batch's
			// terminal stack — lifting any of those for this net's own
			// terminal would corrupt foreign geometry.
			if !r.g.PointFree(p.Col, p.Row) {
				return nil, robust.Invalidf("core: net %q terminal at %v lies on occupied grid point",
					net.Name, p)
			}
			owner[p] = net
			pts = append(pts, p)
		}
		out[net.ID] = pts
	}
	return out, nil
}

// routeNet realises one net: its terminals are lifted out of the
// blockage, its two-terminal connections are routed one by one (Prim
// order for multi-terminal nets), and the accumulated shape is
// committed back to the grid. rank is the net's 1-based serial
// routing position; rip-up retries pass the original rank again so
// per-net attribution survives recovery.
func (r *Router) routeNet(net *netlist.Net, terms []tig.Point, res *Result, rank int) (*NetRoute, *shape) {
	nr := &NetRoute{Net: net, Terminals: terms}
	r.cfg.Budget.BeginNet()
	if r.tr.Enabled() {
		r.tr.Emit(obs.Event{Type: obs.EvNetStart, Net: net.Name, Rank: rank, Terminals: len(terms)})
	}
	// The net's own terminal stacks must be transparent to its own
	// search.
	for _, p := range terms {
		r.g.ClearTerminal(p.Col, p.Row)
	}
	sh := &shape{}
	r.eval.own = sh
	defer func() {
		r.eval.own = nil
		sh.commit(r.g)
		// Terminal stacks block both layers for everyone else even
		// when the terminal lies mid-segment of its own net.
		for _, p := range terms {
			r.g.BlockPoint(p.Col, p.Row)
		}
		nr.Segments = sh.segments()
		nr.Vias = sh.viaPoints()
		nr.WireLength = sh.wireLength(r.g)
		if r.tr.Enabled() {
			r.tr.Emit(obs.Event{
				Type: obs.EvNetDone, Net: net.Name, Wire: nr.WireLength,
				Vias: len(nr.Vias), Corners: nr.Corners, Expanded: nr.Expanded,
				Escalated: nr.Escalations, Failed: nr.Err != nil,
			})
		}
		if r.cfg.Congest != nil {
			r.cfg.Congest.NetCommitted(rank, net.Name, nr.Err != nil, r.g)
		}
	}()

	if len(terms) < 2 {
		return nr, sh // nothing to connect (or fully collapsed by snapping)
	}
	isTerm := make(map[tig.Point]bool, len(terms))
	for _, p := range terms {
		isTerm[p] = true
	}
	termTest := func(p tig.Point) bool { return isTerm[p] }

	if r.cfg.PlainMST {
		r.routeMST(nr, terms, sh, termTest, res)
		return nr, sh
	}

	// Modified Prim (paper section 3.3): grow the routed tree by
	// attaching, at each step, the unconnected terminal closest to the
	// component — where the component is every grid point of the
	// already-routed tree, so attachments may land on Steiner points.
	seed := terms[0]
	left := append([]tig.Point(nil), terms[1:]...)
	for len(left) > 0 {
		bestIdx, bestD := -1, 0
		var bestTarget tig.Point
		for i, p := range left {
			var q tig.Point
			var d int
			if qq, dd, ok := sh.nearestPoint(p); ok {
				q, d = qq, dd
			} else {
				q = seed
				d = geom.Abs(p.Col-q.Col) + geom.Abs(p.Row-q.Row)
			}
			if bestIdx < 0 || d < bestD {
				bestIdx, bestD, bestTarget = i, d, q
			}
		}
		p := left[bestIdx]
		left = append(left[:bestIdx], left[bestIdx+1:]...)
		if sh.containsPoint(p) {
			continue // tree already passes through this terminal
		}
		path, err := r.connect(nr, p, bestTarget, res)
		if err != nil {
			nr.Err = r.failNet(net.Name, err, nr)
			return nr, sh
		}
		sh.addPath(path, termTest)
		nr.Corners += path.Corners()
	}
	return nr, sh
}

// failNet wraps a connection failure with net provenance and, when the
// cause is a budget trip or cancellation, emits one EvBudget event so
// traces show where the work ran out. Failed marks sticky trips that
// end the whole run (the run-level poll in Route is what acts on them).
func (r *Router) failNet(name string, err error, nr *NetRoute) error {
	if r.tr.Enabled() &&
		(errors.Is(err, robust.ErrBudgetExhausted) || errors.Is(err, robust.ErrCanceled)) {
		r.tr.Emit(obs.Event{
			Type: obs.EvBudget, Net: name, Phase: "level-b",
			Expanded: nr.Expanded, Failed: r.cfg.Budget.Err() != nil,
		})
	}
	return robust.Wrap("level-b", name, err)
}

// routeMST is the ablation decomposition: a plain minimum spanning
// tree over the terminal points only, each edge routed independently.
func (r *Router) routeMST(nr *NetRoute, terms []tig.Point, sh *shape, termTest func(tig.Point) bool, res *Result) {
	inTree := make([]bool, len(terms))
	inTree[0] = true
	for n := 1; n < len(terms); n++ {
		bestI, bestJ, bestD := -1, -1, 0
		for i := range terms {
			if !inTree[i] {
				continue
			}
			for j := range terms {
				if inTree[j] {
					continue
				}
				d := geom.Abs(terms[i].Col-terms[j].Col) + geom.Abs(terms[i].Row-terms[j].Row)
				if bestI < 0 || d < bestD {
					bestI, bestJ, bestD = i, j, d
				}
			}
		}
		path, err := r.connect(nr, terms[bestJ], terms[bestI], res)
		if err != nil {
			nr.Err = r.failNet(nr.Net.Name, err, nr)
			return
		}
		sh.addPath(path, termTest)
		nr.Corners += path.Corners()
		inTree[bestJ] = true
	}
}

// connect routes one two-terminal connection. It escalates through a
// completion ladder: the terminal bounding box widened step by step
// (the paper's expandable solution-space window), then — because the
// examine-each-vertex-once rule trades completeness for speed — a
// final full-grid attempt with the rule relaxed and a larger corner
// budget. The paper concedes that level B completion is guaranteed
// only when "the solution space for level B routing guarantees 100%
// routing completion"; the relaxed retry recovers the connections the
// fast strict search misses in dense pin pockets.
func (r *Router) connect(nr *NetRoute, from, to tig.Point, res *Result) (tig.Path, error) {
	if from == to {
		return tig.Path{Points: []tig.Point{from}}, nil
	}
	colLo := geom.Min(from.Col, to.Col)
	colHi := geom.Max(from.Col, to.Col)
	rowLo := geom.Min(from.Row, to.Row)
	rowHi := geom.Max(from.Row, to.Row)
	fullCols := geom.Iv(0, r.g.NX()-1)
	fullRows := geom.Iv(0, r.g.NY()-1)

	attempt := func(cfg tig.Config) (tig.Path, bool, error) {
		sr, ok := r.search.Search(r.g, from, to, cfg)
		if sr != nil {
			res.Expanded += sr.Expanded
			nr.Expanded += sr.Expanded
		}
		if !ok {
			// A budget/cancellation trip aborts the whole ladder: the
			// escalation steps only grow the work, so retrying a tripped
			// search in a larger window cannot succeed.
			if sr != nil && sr.Err != nil {
				return tig.Path{}, false, sr.Err
			}
			return tig.Path{}, false, nil
		}
		best, _, pruned := r.eval.selectBest(sr.Paths)
		if r.tr.Enabled() {
			r.tr.Emit(obs.Event{
				Type: obs.EvSelect, Net: nr.Net.Name, Paths: len(sr.Paths),
				Pruned: pruned, Corners: best.Corners(),
			})
		}
		return best, true, nil
	}

	for step, m := range r.cfg.expansions() {
		if step > 0 {
			nr.Escalations++
			if r.tr.Enabled() {
				r.tr.Emit(obs.Event{Type: obs.EvEscalate, Net: nr.Net.Name, Step: step + 1, Margin: m})
			}
		}
		cfg := tig.Config{
			MaxCorners:   r.cfg.MaxCorners,
			RelaxedVisit: r.cfg.RelaxedVisit,
			MaxPaths:     r.cfg.MaxPaths,
			Tracer:       r.tr,
			Budget:       r.cfg.Budget,
		}
		if m >= 0 {
			cfg.ColBounds = geom.Iv(colLo-m, colHi+m).Intersect(fullCols)
			cfg.RowBounds = geom.Iv(rowLo-m, rowHi+m).Intersect(fullRows)
		} else {
			cfg.ColBounds = fullCols
			cfg.RowBounds = fullRows
		}
		p, ok, err := attempt(cfg)
		if err != nil {
			return tig.Path{}, err
		}
		if ok {
			return p, nil
		}
	}
	if !r.cfg.RelaxedVisit {
		nr.Escalations++
		if r.tr.Enabled() {
			r.tr.Emit(obs.Event{
				Type: obs.EvEscalate, Net: nr.Net.Name,
				Step: len(r.cfg.expansions()) + 1, Margin: -1, Relaxed: true,
			})
		}
		relaxed := tig.Config{
			ColBounds: fullCols, RowBounds: fullRows,
			RelaxedVisit: true,
			MaxCorners:   geom.Max(2*tig.DefaultMaxCorners, r.cfg.MaxCorners),
			MaxPaths:     r.cfg.MaxPaths,
			Tracer:       r.tr,
			Budget:       r.cfg.Budget,
		}
		p, ok, err := attempt(relaxed)
		if err != nil {
			return tig.Path{}, err
		}
		if ok {
			return p, nil
		}
	}
	return tig.Path{}, fmt.Errorf("connection %v -> %v unroutable within corner budget: %w",
		from, to, robust.ErrUnroutable)
}
