// Package maze implements a Lee-style maze router over the same
// two-layer HV grid model as the level B router. It is the baseline
// the paper positions its Track Intersection Graph search against:
// "the proposed router adopts a different representation for the
// solution space ... that results in faster completion of the
// interconnections on the average when compared to maze type
// algorithms" (section 3). The benchmarks in this module compare the
// two head to head on identical instances.
//
// The router is a breadth-first wave expansion over (column, row,
// layer) states: horizontal steps on LayerH, vertical steps on LayerV,
// and layer changes (vias) at points clear on both layers. It finds
// paths with the minimum number of grid steps plus via steps.
package maze

import (
	"sync"

	"overcell/internal/geom"
	"overcell/internal/grid"
	"overcell/internal/obs"
	"overcell/internal/robust"
	"overcell/internal/tig"
)

// state is one cell of the wave expansion.
type state struct {
	col, row int
	layer    grid.Layer
}

// scratch is the reusable wave state: parent indices with epoch stamps
// (so reuse skips the O(w*h) -1 refill), the BFS queue, and the
// backtrace cell buffer. Pooled because maze searches run from both
// benchmark harnesses and crosscheck tests on goroutines the package
// does not control.
type scratch struct {
	prev  []int    // parent state index; valid iff stamp matches epoch
	stamp []uint32 // per-state visit epoch
	epoch uint32
	queue []state
	cells []tig.Point // backtrace staging; the returned path is always a fresh copy
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// ensure readies the scratch for a wave over n states.
func (sc *scratch) ensure(n int) {
	if len(sc.prev) < n {
		sc.prev = make([]int, n)
		sc.stamp = make([]uint32, n)
		sc.epoch = 0
	}
	sc.epoch++
	if sc.epoch == 0 { // stamp wrap: invalidate everything the slow way
		for i := range sc.stamp {
			sc.stamp[i] = 0
		}
		sc.epoch = 1
	}
	sc.queue = sc.queue[:0]
	sc.cells = sc.cells[:0]
}

// visited reports whether state i has a parent this epoch.
func (sc *scratch) visited(i int) bool { return sc.stamp[i] == sc.epoch }

// setPrev records the parent of state i.
func (sc *scratch) setPrev(i, parent int) {
	sc.prev[i] = parent
	sc.stamp[i] = sc.epoch
}

// Result reports a maze routing run.
type Result struct {
	Path tig.Path
	// Expanded counts the states the wave visited, the cost measure
	// used for the TIG-vs-maze comparison.
	Expanded int
	// Err is non-nil when the wave was cut short by its work budget or
	// by cancellation (it matches robust.ErrBudgetExhausted or
	// robust.ErrCanceled) rather than exhausting the window.
	Err error
}

// Route finds a minimum-step path between the two grid points, both of
// which must be clear on both layers. The search is restricted to the
// index-space window (cols, rows); pass the full grid range for an
// unrestricted search.
func Route(g *grid.Grid, from, to tig.Point, cols, rows geom.Interval) (*Result, bool) {
	return RouteBudgeted(g, from, to, cols, rows, nil, nil)
}

// RouteBudgeted is Route with an observability hook and a work budget.
// When tr is enabled it receives one obs.EvMaze event per search
// carrying the wave's expansion count, mirroring the obs.EvMBFS events
// of the TIG search so the two baselines are comparable in one trace
// stream. Every wave state visited is charged against b. When the
// budget trips mid-search the wave stops, Result.Err carries the typed
// cause and the search reports failure. A nil budget is unbounded.
func RouteBudgeted(g *grid.Grid, from, to tig.Point, cols, rows geom.Interval, tr obs.Tracer, b *robust.Budget) (*Result, bool) {
	res, ok := route(g, from, to, cols, rows, b)
	if t := obs.OrNop(tr); t.Enabled() {
		expanded := 0
		if res != nil {
			expanded = res.Expanded
		}
		t.Emit(obs.Event{Type: obs.EvMaze, Expanded: expanded, Failed: !ok})
	}
	return res, ok
}

// route runs the two-layer breadth-first wave. It is the router's
// innermost search: every allocation here is paid once per expanded
// cell, so the wave state lives in preallocated flat slices and the
// per-cell move set is a stack array.
//
//oc:hotpath
func route(g *grid.Grid, from, to tig.Point, cols, rows geom.Interval, b *robust.Budget) (*Result, bool) {
	// One liveness poll per search; Charge amortises polling over a
	// stride larger than many whole searches.
	if err := b.Err(); err != nil {
		return &Result{Err: err}, false
	}
	cols = cols.Intersect(geom.Iv(0, g.NX()-1))
	rows = rows.Intersect(geom.Iv(0, g.NY()-1))
	if !cols.Contains(from.Col) || !rows.Contains(from.Row) ||
		!cols.Contains(to.Col) || !rows.Contains(to.Row) {
		return nil, false
	}
	if from == to {
		return &Result{Path: tig.Path{Points: []tig.Point{from}}}, true
	}
	if !g.PointFree(from.Col, from.Row) || !g.PointFree(to.Col, to.Row) {
		return nil, false
	}

	w := cols.Len()
	h := rows.Len()
	idx := func(s state) int {
		return (int(s.layer)*h+(s.row-rows.Lo))*w + (s.col - cols.Lo)
	}
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	sc.ensure(2 * w * h)
	res := &Result{}

	// Either layer is acceptable at the source: the terminal stack
	// reaches both.
	starts := [2]state{
		{from.Col, from.Row, grid.LayerH},
		{from.Col, from.Row, grid.LayerV},
	}
	for _, s := range starts {
		sc.setPrev(idx(s), idx(s)) // self-parent marks the roots
		sc.queue = append(sc.queue, s)
		res.Expanded++
	}

	free := func(s state) bool {
		if s.layer == grid.LayerH {
			return g.HFree(s.row, geom.Iv(s.col, s.col))
		}
		return g.VFree(s.col, geom.Iv(s.row, s.row))
	}

	var goal state
	found := false
	for qi := 0; qi < len(sc.queue) && !found; qi++ {
		cur := sc.queue[qi]
		var moves [3]state // stack array: no per-cell allocation
		if cur.layer == grid.LayerH {
			moves = [3]state{
				{cur.col - 1, cur.row, grid.LayerH},
				{cur.col + 1, cur.row, grid.LayerH},
				{cur.col, cur.row, grid.LayerV}, // via
			}
		} else {
			moves = [3]state{
				{cur.col, cur.row - 1, grid.LayerV},
				{cur.col, cur.row + 1, grid.LayerV},
				{cur.col, cur.row, grid.LayerH}, // via
			}
		}
		for _, nxt := range moves {
			if !cols.Contains(nxt.col) || !rows.Contains(nxt.row) {
				continue
			}
			if sc.visited(idx(nxt)) {
				continue
			}
			if nxt.layer == cur.layer {
				if !free(nxt) {
					continue
				}
			} else if !g.PointFree(nxt.col, nxt.row) {
				continue // a via needs the point clear on both layers
			}
			sc.setPrev(idx(nxt), idx(cur))
			res.Expanded++
			if err := b.Charge(1); err != nil {
				res.Err = err
				return res, false
			}
			if nxt.col == to.Col && nxt.row == to.Row {
				goal = nxt
				found = true
				break
			}
			sc.queue = append(sc.queue, nxt)
		}
	}
	if !found {
		return res, false
	}
	res.Path = backtrace(sc, goal, w, h, cols, rows, idx)
	return res, true
}

// backtrace walks the parent pointers from the goal to a root and
// compresses the cell sequence into corner points. The staging cell
// buffer is pooled scratch; the returned Path always owns a fresh
// Points slice (it escapes into Result).
//
//oc:hotpath
func backtrace(sc *scratch, goal state, w, h int, cols, rows geom.Interval, idx func(state) int) tig.Path {
	unidx := func(i int) state {
		layer := grid.Layer(i / (w * h))
		rem := i % (w * h)
		return state{
			col:   rem%w + cols.Lo,
			row:   rem/w + rows.Lo,
			layer: layer,
		}
	}
	cells := sc.cells[:0]
	cur := goal
	for {
		p := tig.Point{Col: cur.col, Row: cur.row}
		if len(cells) == 0 || cells[len(cells)-1] != p {
			cells = append(cells, p)
		}
		pi := sc.prev[idx(cur)]
		if pi == idx(cur) {
			break // root
		}
		cur = unidx(pi)
	}
	sc.cells = cells
	// Reverse into source->target order.
	for i, j := 0, len(cells)-1; i < j; i, j = i+1, j-1 {
		cells[i], cells[j] = cells[j], cells[i]
	}
	// Compress collinear runs.
	if len(cells) <= 2 {
		out := make([]tig.Point, len(cells))
		copy(out, cells)
		return tig.Path{Points: out}
	}
	out := make([]tig.Point, 1, len(cells))
	out[0] = cells[0]
	for i := 1; i < len(cells)-1; i++ {
		a := out[len(out)-1]
		b, c := cells[i], cells[i+1]
		if (a.Col == b.Col && b.Col == c.Col) || (a.Row == b.Row && b.Row == c.Row) {
			continue
		}
		out = append(out, b)
	}
	out = append(out, cells[len(cells)-1])
	return tig.Path{Points: out}
}
