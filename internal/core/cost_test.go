package core

import (
	"testing"

	"overcell/internal/geom"
	"overcell/internal/grid"
	"overcell/internal/tig"
)

func evalGrid(t *testing.T) *grid.Grid {
	t.Helper()
	g, err := grid.Uniform(20, 16, 10)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestPathLengthIncremental(t *testing.T) {
	g := evalGrid(t)
	e := newCostEvaluator(g, SparseWeights())
	p := tig.Path{Points: []tig.Point{{Col: 0, Row: 0}, {Col: 10, Row: 0}, {Col: 10, Row: 5}}}
	if got := e.pathLength(p); got != 150 {
		t.Fatalf("pathLength = %d, want 150", got)
	}
	// With own metal covering part of the horizontal run, only the new
	// metal is charged.
	sh := &shape{}
	sh.addH(0, geom.Iv(0, 6))
	e.own = sh
	if got := e.pathLength(p); got != 150-60 {
		t.Errorf("incremental pathLength = %d, want 90", got)
	}
	// Fragmented own coverage charges exactly the gaps.
	sh2 := &shape{}
	sh2.addH(0, geom.Iv(0, 2))
	sh2.addH(0, geom.Iv(5, 7))
	e.own = sh2
	// Overlap length = (x2-x0)+(x7-x5) = 20+20 = 40.
	if got := e.pathLength(p); got != 150-40 {
		t.Errorf("fragmented incremental pathLength = %d, want 110", got)
	}
}

func TestCouplingCost(t *testing.T) {
	g := evalGrid(t)
	// Existing horizontal wire on row 7 spanning cols 2..17.
	g.CommitHWire(7, geom.Iv(2, 17))
	w := LengthOnlyWeights()
	w.Coupling = 1
	e := newCostEvaluator(g, w)

	adjacent := tig.Path{Points: []tig.Point{{Col: 2, Row: 6}, {Col: 17, Row: 6}, {Col: 17, Row: 12}}}
	distant := tig.Path{Points: []tig.Point{{Col: 2, Row: 6}, {Col: 2, Row: 12}, {Col: 17, Row: 12}}}
	if got := e.couplingCost(adjacent); got != 16 {
		t.Errorf("adjacent couplingCost = %v, want 16 (full parallel run)", got)
	}
	if got := e.couplingCost(distant); got != 0 {
		t.Errorf("distant couplingCost = %v, want 0", got)
	}
	// Wider neighbourhood counts more rows.
	w2 := w
	w2.CouplingDist = 2
	e2 := newCostEvaluator(g, w2)
	nearish := tig.Path{Points: []tig.Point{{Col: 2, Row: 9}, {Col: 17, Row: 9}, {Col: 17, Row: 12}}}
	if got := e2.couplingCost(nearish); got != 16 {
		t.Errorf("dist-2 couplingCost = %v, want 16", got)
	}
	if got := e.couplingCost(nearish); got != 0 {
		t.Errorf("dist-1 couplingCost for 2-away run = %v, want 0", got)
	}
}

func TestSelectBestPrefersUncoupledPath(t *testing.T) {
	g := evalGrid(t)
	g.CommitHWire(7, geom.Iv(2, 17))
	adjacent := tig.Path{Points: []tig.Point{{Col: 2, Row: 6}, {Col: 17, Row: 6}, {Col: 17, Row: 12}}}
	distant := tig.Path{Points: []tig.Point{{Col: 2, Row: 6}, {Col: 2, Row: 12}, {Col: 17, Row: 12}}}

	// Length-only: both L shapes cost the same; the tie keeps the
	// first candidate.
	plain := newCostEvaluator(g, LengthOnlyWeights())
	if best, _, _ := plain.selectBest([]tig.Path{adjacent, distant}); best.Points[1] != (tig.Point{Col: 17, Row: 6}) {
		t.Error("tie-break changed: expected the first candidate")
	}
	// With the coupling term the distant path wins despite coming
	// second.
	w := LengthOnlyWeights()
	w.Coupling = 1
	coupled := newCostEvaluator(g, w)
	if best, _, _ := coupled.selectBest([]tig.Path{adjacent, distant}); best.Points[1] != (tig.Point{Col: 2, Row: 12}) {
		t.Error("coupling term did not steer selection away from the parallel run")
	}
}

func TestVerticalCoupling(t *testing.T) {
	g := evalGrid(t)
	g.CommitVWire(5, geom.Iv(0, 15))
	w := LengthOnlyWeights()
	w.Coupling = 2
	e := newCostEvaluator(g, w)
	beside := tig.Path{Points: []tig.Point{{Col: 6, Row: 0}, {Col: 6, Row: 10}}}
	if got := e.couplingCost(beside); got != 22 {
		t.Errorf("vertical couplingCost = %v, want 22 (11 points x weight 2)", got)
	}
}

func TestCornerCostNormalisation(t *testing.T) {
	g := evalGrid(t)
	e := newCostEvaluator(g, SparseWeights())
	empty := e.cornerCost(tig.Point{Col: 10, Row: 8})
	if empty != 0 {
		t.Errorf("empty-grid corner cost = %v, want 0", empty)
	}
	g.CommitHWire(8, geom.Iv(8, 12))
	withWire := e.cornerCost(tig.Point{Col: 10, Row: 8})
	if withWire <= 0 {
		t.Error("corner near wire should cost more than empty corner")
	}
}

// TestSelectBestAllocs holds path selection to zero allocations per
// call when the net's own shape overlaps the candidates, as it does
// from a multi-terminal net's second connection on: pathLength reads
// the own metal under every candidate segment in place.
func TestSelectBestAllocs(t *testing.T) {
	g := evalGrid(t)
	g.CommitHWire(7, geom.Iv(2, 17))
	g.CommitVWire(15, geom.Iv(0, 6))
	own := &shape{}
	noTerms := func(tig.Point) bool { return false }
	own.addPath(tig.Path{Points: []tig.Point{{Col: 0, Row: 3}, {Col: 12, Row: 3}, {Col: 12, Row: 10}}}, noTerms)
	own.addPath(tig.Path{Points: []tig.Point{{Col: 4, Row: 3}, {Col: 4, Row: 12}, {Col: 9, Row: 12}}}, noTerms)
	from, to := tig.Point{Col: 2, Row: 3}, tig.Point{Col: 18, Row: 12}
	paths := []tig.Path{
		{Points: []tig.Point{from, {Col: 18, Row: 3}, to}},
		{Points: []tig.Point{from, {Col: 2, Row: 12}, to}},
		{Points: []tig.Point{from, {Col: 12, Row: 3}, {Col: 12, Row: 12}, to}},
		{Points: []tig.Point{from, {Col: 4, Row: 3}, {Col: 4, Row: 12}, to}},
		{Points: []tig.Point{from, {Col: 2, Row: 10}, {Col: 18, Row: 10}, to}},
	}
	w := SparseWeights()
	w.Coupling = 1
	e := newCostEvaluator(g, w)
	e.own = own
	if got := testing.AllocsPerRun(100, func() { e.selectBest(paths) }); got != 0 {
		t.Errorf("selectBest makes %.0f allocations per call, want 0", got)
	}
}
