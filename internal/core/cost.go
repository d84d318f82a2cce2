package core

import (
	"overcell/internal/geom"
	"overcell/internal/grid"
	"overcell/internal/tig"
)

// costEvaluator scores candidate paths with the paper's objective
//
//	C = w1·wl + Σ_j (w21·drg_j + w22·dup_j + w23·acf_j).
//
// The wire length term is normalised to track pitches (wl in layout
// units divided by the grid's mean pitch) so that the paper's weight
// recommendations (w1=1, w2*=10) remain meaningful on any database
// unit scale.
type costEvaluator struct {
	g         *grid.Grid
	w         Weights
	normPitch float64
	// own is the shape of the net currently being routed. The wire
	// length term charges only incremental metal: spans already covered
	// by the net's own tree are free, so paths that ride the existing
	// tree are preferred over parallel duplicates.
	own *shape
	// cbuf is the reusable corner-point buffer: cost and selectBest
	// enumerate corners once per candidate path, which used to allocate
	// a fresh slice per candidate.
	cbuf []tig.Point
}

func newCostEvaluator(g *grid.Grid, w Weights) costEvaluator {
	b := g.Bounds()
	spanX, spanY := b.Width(), b.Height()
	nTracks := g.NX() + g.NY() - 2
	pitch := 1.0
	if nTracks > 0 && spanX+spanY > 0 {
		pitch = float64(spanX+spanY) / float64(nTracks)
	}
	if w.Window <= 0 {
		w.Window = 2
	}
	return costEvaluator{g: g, w: w, normPitch: pitch}
}

// pathLength returns the layout-unit length of the new metal the path
// adds: spans already covered by the current net's own shape cost
// nothing.
//
//oc:hotpath
func (e *costEvaluator) pathLength(p tig.Path) int {
	total := 0
	for i := 1; i < len(p.Points); i++ {
		a, b := p.Points[i-1], p.Points[i]
		if a.Row == b.Row {
			iv := geom.Iv(geom.Min(a.Col, b.Col), geom.Max(a.Col, b.Col))
			total += e.g.SpanLengthX(iv.Lo, iv.Hi)
			if e.own != nil {
				total -= e.own.overlapLengthH(e.g, a.Row, iv)
			}
		} else {
			iv := geom.Iv(geom.Min(a.Row, b.Row), geom.Max(a.Row, b.Row))
			total += e.g.SpanLengthY(iv.Lo, iv.Hi)
			if e.own != nil {
				total -= e.own.overlapLengthV(e.g, a.Col, iv)
			}
		}
	}
	return total
}

// cornerCost evaluates the three proximity terms at one corner.
//
//oc:hotpath
func (e *costEvaluator) cornerCost(c tig.Point) float64 {
	w := e.w.Window
	cols := geom.Iv(c.Col-w, c.Col+w)
	rows := geom.Iv(c.Row-w, c.Row+w)
	window := float64((2*w + 1) * (2*w + 1))
	drg := float64(e.g.WireCountIn(cols, rows)) / window
	dup := float64(e.g.TermCountIn(cols, rows)) / window
	acf := e.g.CongestionIn(cols, rows)
	return e.w.Drg*drg + e.w.Dup*dup + e.w.Acf*acf
}

// couplingCost charges the paper's optional cross-talk term: one unit
// of Coupling per existing wire point running parallel to the path on
// the tracks within CouplingDist of each segment (section 3.2's
// "prevent parallel routing of sensitive nets" extension).
//
//oc:hotpath
func (e *costEvaluator) couplingCost(p tig.Path) float64 {
	if e.w.Coupling <= 0 {
		return 0
	}
	d := e.w.CouplingDist
	if d <= 0 {
		d = 1
	}
	total := 0
	for i := 1; i < len(p.Points); i++ {
		a, b := p.Points[i-1], p.Points[i]
		if a.Row == b.Row {
			cols := geom.Iv(geom.Min(a.Col, b.Col), geom.Max(a.Col, b.Col))
			total += e.g.HWireCountIn(cols, geom.Iv(a.Row-d, a.Row-1))
			total += e.g.HWireCountIn(cols, geom.Iv(a.Row+1, a.Row+d))
		} else {
			rows := geom.Iv(geom.Min(a.Row, b.Row), geom.Max(a.Row, b.Row))
			total += e.g.VWireCountIn(geom.Iv(a.Col-d, a.Col-1), rows)
			total += e.g.VWireCountIn(geom.Iv(a.Col+1, a.Col+d), rows)
		}
	}
	return e.w.Coupling * float64(total)
}

// base returns the corner-independent cost components.
//
//oc:hotpath
func (e *costEvaluator) base(p tig.Path) float64 {
	return e.w.WL*float64(e.pathLength(p))/e.normPitch + e.couplingCost(p)
}

// cost returns the full objective value of a path.
//
//oc:hotpath
func (e *costEvaluator) cost(p tig.Path) float64 {
	c := e.base(p)
	e.cbuf = p.AppendCorners(e.cbuf[:0])
	for _, corner := range e.cbuf {
		c += e.cornerCost(corner)
	}
	return c
}

// selectBest picks the cheapest path among the candidates, by
// backtracking with a bounding function: terms are accumulated
// incrementally and a candidate is abandoned as soon as its partial
// cost reaches the best complete cost found so far (all terms are
// non-negative, so the partial sum is a valid lower bound). This is
// the flat equivalent of the paper's depth-first search with bounding
// over the Path Selection Trees. Ties break toward the earlier
// candidate, which keeps the router deterministic. The third return is
// the number of candidates the bound abandoned before full evaluation,
// reported through the obs.EvSelect event.
//
//oc:hotpath
func (e *costEvaluator) selectBest(paths []tig.Path) (tig.Path, float64, int) {
	best := paths[0]
	bestCost := e.cost(paths[0])
	prunes := 0
	for _, p := range paths[1:] {
		partial := e.base(p)
		if partial >= bestCost {
			prunes++
			continue
		}
		pruned := false
		e.cbuf = p.AppendCorners(e.cbuf[:0])
		for _, corner := range e.cbuf {
			partial += e.cornerCost(corner)
			if partial >= bestCost {
				pruned = true
				break
			}
		}
		if pruned {
			prunes++
		} else if partial < bestCost {
			best, bestCost = p, partial
		}
	}
	return best, bestCost, prunes
}
