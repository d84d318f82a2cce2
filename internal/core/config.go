// Package core implements the level B router of Katsadas & Chen
// (DAC 1990): the paper's primary contribution. Nets are routed
// serially over the entire layout area on two dedicated layers,
// avoiding arbitrary obstacles. Each two-terminal connection is found
// with the Track Intersection Graph search of internal/tig (all
// minimum-corner paths), and the winner among the candidates is chosen
// by the paper's weighted cost function
//
//	C = w1·wl + Σ_{j=1..k} (w21·drg_j + w22·dup_j + w23·acf_j)
//
// where wl is the wire length, and per corner j: drg measures
// proximity to already-routed grid points, dup proximity to unrouted
// net terminals, and acf the area congestion factor. Multi-terminal
// nets are decomposed by a modified Prim heuristic that may attach to
// Steiner points of the net's partially routed tree (section 3.3).
package core

import (
	"cmp"
	"slices"

	"overcell/internal/netlist"
	"overcell/internal/obs"
	"overcell/internal/robust"
)

// Weights parameterises the path-selection cost function.
type Weights struct {
	WL  float64 // w1: wire length (in track-pitch units)
	Drg float64 // w21: proximity to routed grid points, per corner
	Dup float64 // w22: proximity to unrouted net terminals, per corner
	Acf float64 // w23: area congestion factor, per corner
	// Window is the half-width, in tracks, of the square window
	// around each corner used to evaluate the three proximity terms.
	Window int
	// Coupling is the paper's section 3.2 extension hook: "additional
	// terms can be included in the cost function for nets with special
	// constraints, for example, to prevent parallel routing of
	// sensitive nets". When positive, every path segment is charged
	// Coupling per grid point of existing wire running parallel on the
	// tracks within CouplingDist of the segment, discouraging long
	// side-by-side runs and the capacitive cross-talk they cause.
	Coupling float64
	// CouplingDist is the parallel-run neighbourhood in tracks
	// (default 1 when Coupling is set).
	CouplingDist int
}

// SparseWeights returns the paper's recommendation for routing
// problems with sparse net distributions: "it is sufficient to balance
// the effect of the two terms of the objective function by setting
// w1=1 and w21=w22=w23=10".
func SparseWeights() Weights {
	return Weights{WL: 1, Drg: 10, Dup: 10, Acf: 10, Window: 2}
}

// DenseWeights returns the paper's dense-distribution variant: "the
// second term of the objective function should be weighted more to
// reduce the possibility of blocking unrouted nets".
func DenseWeights() Weights {
	return Weights{WL: 1, Drg: 40, Dup: 40, Acf: 40, Window: 3}
}

// LengthOnlyWeights disables the corner terms entirely; used by the
// ablation benchmarks to quantify what the proximity terms buy.
func LengthOnlyWeights() Weights {
	return Weights{WL: 1, Window: 1}
}

// Order selects the serial net processing order.
type Order int

// Net ordering criteria. LongestFirst is the paper's default ("net
// ordering is accomplished using a longest distance criterion");
// CriticalityFirst is the paper's user-specified alternative.
const (
	LongestFirst Order = iota
	ShortestFirst
	CriticalityFirst
	InputOrder
)

// String implements fmt.Stringer.
func (o Order) String() string {
	switch o {
	case LongestFirst:
		return "longest-first"
	case ShortestFirst:
		return "shortest-first"
	case CriticalityFirst:
		return "criticality-first"
	case InputOrder:
		return "input-order"
	}
	return "order(?)"
}

// Config tunes the router.
type Config struct {
	Weights Weights
	Order   Order
	// Expansions are the successive margins, in tracks, by which the
	// terminal bounding box is widened when a connection cannot be
	// completed in the smaller window. A negative entry means the full
	// grid. Nil means DefaultExpansions.
	Expansions []int
	// MaxCorners caps the corner count per connection (0 = default).
	MaxCorners int
	// RelaxedVisit disables the paper's examine-once rule in the
	// underlying search (ablation).
	RelaxedVisit bool
	// MaxPaths caps candidate paths per connection (0 = default).
	MaxPaths int
	// PlainMST decomposes multi-terminal nets by a terminal-only
	// minimum spanning tree instead of the paper's Steiner-attaching
	// Prim variant (ablation).
	PlainMST bool
	// RipupPasses bounds the rip-up-and-reroute recovery passes run
	// after the serial first pass: nets that could not complete lift a
	// bounded set of committed nets out of their congestion window and
	// everyone re-routes. 0 means DefaultRipupPasses; negative disables
	// recovery entirely (ablation).
	RipupPasses int
	// RipupVictims caps how many committed nets one recovery attempt
	// may lift (0 = DefaultRipupVictims).
	RipupVictims int
	// Tracer receives the router's structured events (net attempts,
	// MBFS searches, escalations, rip-up outcomes). Nil disables
	// tracing at no cost to the search hot path.
	Tracer obs.Tracer
	// Budget meters the run: search expansions are charged against it
	// and the router polls it between nets, ladder steps and recovery
	// passes. Per-net exhaustion degrades the net and continues; total
	// exhaustion, deadline expiry and cancellation stop the run with a
	// partial Result. Nil means unbounded.
	Budget *robust.Budget
	// Congest is notified after each net commit mutates the grid (see
	// CommitObserver); congestion time-series samplers hang off it. Nil
	// disables the hook.
	Congest CommitObserver
}

// Rip-up recovery defaults.
const (
	DefaultRipupPasses  = 4
	DefaultRipupVictims = 12
)

func (c *Config) ripupPasses() int {
	if c.RipupPasses == 0 {
		return DefaultRipupPasses
	}
	if c.RipupPasses < 0 {
		return 0
	}
	return c.RipupPasses
}

func (c *Config) ripupVictims() int {
	if c.RipupVictims <= 0 {
		return DefaultRipupVictims
	}
	return c.RipupVictims
}

// EffectiveWorkers returns 1: level B routes one net at a time.
//
// Deprecated: the router has no worker pool. EffectiveWorkers exists
// only so that the benchmark under bench/, which must also build
// against older checkouts, keeps compiling.
func (c *Config) EffectiveWorkers() int { return 1 }

// DefaultExpansions widen the window gently before falling back to the
// whole grid.
var DefaultExpansions = []int{1, 4, 16, -1}

// DefaultConfig returns the paper-faithful configuration: sparse
// weights, longest-distance ordering.
func DefaultConfig() Config {
	return Config{Weights: SparseWeights(), Order: LongestFirst}
}

func (c *Config) tracer() obs.Tracer {
	return obs.OrNop(c.Tracer)
}

func (c *Config) expansions() []int {
	if len(c.Expansions) == 0 {
		return DefaultExpansions
	}
	return c.Expansions
}

// orderNets returns the positions in nets of the nets in routing
// order, without mutating nets.
func orderNets(nets []*netlist.Net, o Order) []int {
	order := make([]int, len(nets))
	for i := range order {
		order[i] = i
	}
	longest := func(i, j int) int { return netlist.ByHalfPerimeter(nets[i], nets[j]) }
	switch o {
	case LongestFirst:
		slices.SortStableFunc(order, longest)
	case ShortestFirst:
		slices.SortStableFunc(order, longest)
		slices.Reverse(order)
	case CriticalityFirst:
		// Descending criticality; equal criticality keeps the
		// longest-first order.
		slices.SortStableFunc(order, longest)
		slices.SortStableFunc(order, func(i, j int) int { return cmp.Compare(nets[j].Criticality, nets[i].Criticality) })
	case InputOrder:
		// keep as given
	}
	return order
}
