package core

import (
	"overcell/internal/grid"
	"overcell/internal/tig"
)

// Selector exposes path selection to the external test package, whose
// benchmarks pin their inputs through internal/flow.
type Selector struct{ e costEvaluator }

// NewSelector returns a selector that scores paths on g under w, as
// the router does for a net with no routed metal of its own yet.
func NewSelector(g *grid.Grid, w Weights) *Selector {
	return &Selector{e: newCostEvaluator(g, w)}
}

// SelectBest runs the router's path selection over paths.
func (s *Selector) SelectBest(paths []tig.Path) (tig.Path, float64, int) {
	return s.e.selectBest(paths)
}
