// Package flow assembles the complete routing flows the paper's
// evaluation compares (section 4):
//
//   - TwoLayerBaseline: every net routed in channels on metal1/metal2,
//     the conventional flow the paper measures against (Table 2).
//   - Proposed: the paper's methodology — critical/timing nets at
//     level A in channels, everything else at level B over the entire
//     layout on metal3/metal4 (Tables 2 and 3).
//   - FourLayerChannel: the optimistic multi-layer channel model of
//     Table 3 (channel heights halved relative to the two-layer flow).
//   - ChannelFree: the concluding-remarks variant with every net at
//     level B and the channels collapsed to a minimal separation.
//
// Via accounting, used consistently across flows, counts routing vias
// only: channel solutions contribute one via per vertical-to-track
// tap; level B nets contribute their corner and T-junction vias.
// Terminal via stacks are excluded everywhere — the paper folds them
// into the terminal design (section 2), so they are identical across
// flows and cancel out of every comparison.
package flow

import (
	"context"
	"errors"
	"fmt"
	"runtime/pprof"
	"slices"
	"time"

	"overcell/internal/channel"
	"overcell/internal/core"
	"overcell/internal/delay"
	"overcell/internal/floorplan"
	"overcell/internal/gen"
	"overcell/internal/global"
	"overcell/internal/grid"
	"overcell/internal/netlist"
	"overcell/internal/obs"
	"overcell/internal/obs/perf"
	"overcell/internal/robust"
	"overcell/internal/verify"
)

// ChannelAlgo selects the detailed channel router.
type ChannelAlgo int

// Channel router choices. AutoChannel tries dogleg first and falls
// back to the greedy router when constraints are cyclic.
const (
	AutoChannel ChannelAlgo = iota
	GreedyChannel
	DoglegChannel
	LeftEdgeChannel
	NetMergeChannel
)

// Options tunes a flow run.
type Options struct {
	Channel ChannelAlgo
	// Core configures the level B router; the zero value means
	// core.DefaultConfig.
	Core *core.Config
	// Partition overrides the net split of the Proposed flow: nets for
	// which it returns true go to level A (channels), the rest to
	// level B. Nil means the paper's by-class policy (critical and
	// timing nets in channels). This is the paper's section 2 knob:
	// "layout area allocated for channels can be controlled through
	// the net partitioning process".
	Partition func(gen.NetSpec) bool
	// Tracer receives the flow's phase timing events and is threaded
	// into the level B router (unless Core already carries its own
	// tracer). Nil disables tracing.
	Tracer obs.Tracer
	// Clock supplies the timestamps behind the phase_end DurNS fields.
	// Nil means the wall clock; tests inject a fixed-step clock to make
	// phase timings reproducible.
	Clock func() time.Time
	// Ctx cancels the run: the routers poll it and return the partial
	// result with robust.ErrCanceled (or robust.ErrBudgetExhausted when
	// the context's deadline expired). Nil means context.Background().
	Ctx context.Context
	// Limits bounds the run's work (expansions, wall clock). The zero
	// value is unbounded. One budget over Ctx and Limits is shared by
	// all phases of a flow run; Core.Budget, when set, takes precedence.
	Limits robust.Limits
	// AllowPartial accepts runs with degraded (failed) level B nets:
	// instead of an error, the flow returns the verified partial result
	// with Result.Degraded counting the incomplete nets. Sticky budget
	// trips (total cap, deadline, cancellation) still return an error —
	// alongside the verified partial result.
	AllowPartial bool
	// Workers is ignored: level B routes one net at a time.
	//
	// Deprecated: Workers exists only so that the benchmark under bench/,
	// which must also build against older checkouts, keeps compiling.
	Workers int
	// Perf attaches a performance-attribution collector to the run: it
	// joins the tracer chain, so phase boundaries trigger its runtime
	// samples. Nil disables attribution at zero cost.
	Perf *perf.Collector
	// Congest attaches a commit-boundary observer to the level B router
	// (core.Config.Congest): one callback per net commit, in routing
	// order. The obs/congest Series records the congestion time-series
	// from it. Nil disables the hook. Ignored when Core already carries
	// its own observer.
	Congest core.CommitObserver
	// RunID is the "run" pprof label value when ProfileLabels is on (an
	// ocserved run id, an instance name).
	RunID string
	// ProfileLabels runs each phase under pprof labels (run, phase), so
	// CPU/heap profiles captured during the run are attributable. Off by
	// default: label upkeep costs a little on every goroutine switch.
	ProfileLabels bool
}

// clock returns the injected phase clock, defaulting to the wall
// clock.
func (o Options) clock() func() time.Time {
	if o.Clock != nil {
		return o.Clock
	}
	return time.Now //oc:clock-ok injectable default; tests pin a fixed-step clock
}

// newBudget builds the run's shared budget: Core.Budget when the
// caller supplied one, a fresh budget over Ctx/Limits when either is
// set, else nil (unbounded, zero overhead).
func (o Options) newBudget() *robust.Budget {
	if o.Core != nil && o.Core.Budget != nil {
		return o.Core.Budget
	}
	if o.Ctx == nil && o.Limits.Zero() {
		return nil
	}
	return robust.NewBudget(o.Ctx, o.Limits)
}

func (o Options) coreConfig(b *robust.Budget) core.Config {
	cfg := core.DefaultConfig()
	if o.Core != nil {
		cfg = *o.Core
	}
	if cfg.Tracer == nil {
		cfg.Tracer = o.Tracer
	}
	if cfg.Budget == nil {
		cfg.Budget = b
	}
	if cfg.Congest == nil {
		cfg.Congest = o.Congest
	}
	return cfg
}

// prepare wires an attached perf collector into the run: the run
// window opens (Start is idempotent, so flows sharing a collector just
// widen it), and the collector joins the tracer chain so phase
// boundaries reach its sampler. Every flow entry point calls it once on
// its own copy.
func (o Options) prepare() Options {
	if o.Perf == nil {
		return o
	}
	o.Perf.Start()
	o.Tracer = obs.Combine(o.Tracer, o.Perf)
	return o
}

// labeled runs fn under pprof labels (run=o.RunID, phase=phase) when
// ProfileLabels is on; with labels off, fn runs directly.
func (o Options) labeled(phase string, fn func()) {
	if !o.ProfileLabels {
		fn()
		return
	}
	ctx := o.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	pprof.Do(ctx, pprof.Labels("run", o.RunID, "phase", phase), func(context.Context) { fn() })
}

// phase brackets one flow phase with obs events and returns the
// closure that emits the matching phase_end with the phase's duration
// as measured by clock. The clock is read before phase_start goes out,
// so the tracers' work on that event counts in the phase.
func phase(tr obs.Tracer, clock func() time.Time, name string) func() {
	t := obs.OrNop(tr)
	if !t.Enabled() {
		return func() {}
	}
	start := clock()
	t.Emit(obs.Event{Type: obs.EvPhaseStart, Phase: name})
	return func() {
		t.Emit(obs.Event{Type: obs.EvPhaseEnd, Phase: name, DurNS: clock().Sub(start).Nanoseconds()})
	}
}

// Result reports one flow run.
type Result struct {
	Flow          string
	Area          int64
	Width, Height int
	WireLength    int
	Vias          int
	ChannelTracks []int
	Feedthroughs  int
	// LevelB holds the over-cell routing result for flows that have
	// one, including per-net geometry for rendering.
	LevelB *core.Result
	// BGrid is the level B routing grid (for rendering); nil for
	// channel-only flows.
	BGrid *grid.Grid
	// Delay is the first-order Elmore delay summary over all routed
	// nets (see internal/delay), quantifying the paper's propagation-
	// delay motivation for over-cell routing.
	Delay delay.Summary
	// Degraded counts level B nets that did not complete (budget
	// exhaustion or unroutable) in a run accepted under AllowPartial or
	// returned alongside a sticky budget error. 0 on clean runs.
	Degraded int
}

// levelA runs global assignment and detailed channel routing for the
// subset of nets, returning channel heights and accumulated metrics.
type levelAResult struct {
	heights      []int
	wireLength   int
	vias         int
	tracks       []int
	feedthroughs int
	// delays holds the per-net Elmore estimates of the channel-routed
	// nets.
	delays []float64
}

func routeLevelA(inst *gen.Instance, subset func(gen.NetSpec) bool, opt Options, b *robust.Budget) (la *levelAResult, err error) {
	defer phase(opt.Tracer, opt.clock(), "level-a")()
	opt.labeled("level-a", func() {
		la, err = levelABody(inst, subset, opt, b)
	})
	return la, err
}

func levelABody(inst *gen.Instance, subset func(gen.NetSpec) bool, opt Options, b *robust.Budget) (*levelAResult, error) {
	if err := b.Err(); err != nil {
		return nil, robust.Wrap("level-a", "", err)
	}
	algo := opt.Channel
	l := inst.Layout
	// Provisional placement: x-coordinates are all global assignment
	// needs, and they are independent of channel heights.
	if err := l.Place(make([]int, l.NumChannels())); err != nil {
		return nil, err
	}
	gnets := inst.GlobalNets(subset)
	asg, err := global.Assign(l, gnets)
	if err != nil {
		return nil, err
	}
	res := &levelAResult{heights: make([]int, l.NumChannels())}
	pitch := l.Tech.M12Pitch
	netWL := map[int]int{}
	netVias := map[int]int{}
	for i, prob := range asg.Problems {
		// The channel routers are not expansion-metered; deadline and
		// cancellation are polled between channels instead.
		if err := b.Err(); err != nil {
			return nil, robust.Wrap("level-a", "", err)
		}
		sol, err := routeChannel(prob, algo)
		if err != nil {
			// Level A built the problem from valid input, so a channel it
			// cannot solve (cyclic constraints, two pins of one net folded
			// into one slot) is unroutable, unless the router broke an
			// invariant.
			if !errors.Is(err, robust.ErrInternal) {
				err = fmt.Errorf("%w: %w", err, robust.ErrUnroutable)
			}
			return nil, fmt.Errorf("flow: channel %d: %w", i, err)
		}
		res.heights[i] = sol.Height(pitch)
		res.tracks = append(res.tracks, sol.Tracks)
		res.wireLength += sol.WireLength(asg.ColPitch, pitch)
		res.vias += sol.ViaCount()
		for net, wl := range sol.NetWireLengths(asg.ColPitch, pitch) {
			netWL[net] += wl
		}
		for net, v := range sol.NetViaCounts() {
			netVias[net] += v
		}
	}
	res.wireLength += asg.FeedthroughLen
	res.feedthroughs = asg.Feedthroughs
	// Per-net Elmore estimates: channel nets run on metal1/metal2.
	params := delay.Default()
	for _, gn := range gnets {
		num := int(gn.ID) + 1
		res.delays = append(res.delays, delay.Estimate(delay.Net{
			WireM12: netWL[num] + asg.NetFeedthroughLen[num],
			Vias:    netVias[num],
			Sinks:   len(gn.Pins) - 1,
		}, params))
	}
	return res, nil
}

func routeChannel(p *channel.Problem, algo ChannelAlgo) (*channel.Solution, error) {
	if empty(p) {
		return &channel.Solution{Tracks: 0, Width: p.Width(), Algorithm: "empty"}, nil
	}
	switch algo {
	case GreedyChannel:
		return channel.Greedy(p)
	case DoglegChannel:
		return channel.Dogleg(p)
	case LeftEdgeChannel:
		return channel.LeftEdge(p)
	case NetMergeChannel:
		return channel.NetMerge(p)
	default:
		if sol, err := channel.Dogleg(p); err == nil {
			return sol, nil
		}
		return channel.Greedy(p)
	}
}

func empty(p *channel.Problem) bool {
	for _, n := range p.Top {
		if n != 0 {
			return false
		}
	}
	for _, n := range p.Bottom {
		if n != 0 {
			return false
		}
	}
	return true
}

// TwoLayerBaseline routes every net in the channels.
func TwoLayerBaseline(inst *gen.Instance, opt Options) (res *Result, err error) {
	defer robust.Recover("flow.TwoLayerBaseline", &err)
	opt = opt.prepare()
	la, err := routeLevelA(inst, nil, opt, opt.newBudget())
	if err != nil {
		return nil, err
	}
	l := inst.Layout
	if err := l.Place(la.heights); err != nil {
		return nil, err
	}
	return &Result{
		Flow:          "two-layer-channel",
		Area:          l.Area(),
		Width:         l.Width(),
		Height:        l.Height(),
		WireLength:    la.wireLength,
		Vias:          la.vias,
		ChannelTracks: la.tracks,
		Feedthroughs:  la.feedthroughs,
		Delay:         delay.Summarise(la.delays),
	}, nil
}

// FourLayerChannel models the paper's Table 3 comparison: a
// hypothetical multi-layer channel router is optimistically assumed to
// need half the channel height of the two-layer router. Only layout
// area is meaningful; wire length and vias are inherited from the
// two-layer routing as an approximation.
func FourLayerChannel(inst *gen.Instance, opt Options) (res *Result, err error) {
	defer robust.Recover("flow.FourLayerChannel", &err)
	opt = opt.prepare()
	la, err := routeLevelA(inst, nil, opt, opt.newBudget())
	if err != nil {
		return nil, err
	}
	halved := make([]int, len(la.heights))
	for i, h := range la.heights {
		halved[i] = (h + 1) / 2
	}
	l := inst.Layout
	if err := l.Place(halved); err != nil {
		return nil, err
	}
	return &Result{
		Flow:          "four-layer-channel(50%)",
		Area:          l.Area(),
		Width:         l.Width(),
		Height:        l.Height(),
		WireLength:    la.wireLength,
		Vias:          la.vias,
		ChannelTracks: la.tracks,
		Feedthroughs:  la.feedthroughs,
		Delay:         delay.Summarise(la.delays),
	}, nil
}

// Proposed runs the paper's two-level methodology. On a sticky budget
// trip (total cap, deadline, cancellation) it returns the verified
// partial result alongside the typed error; callers that can use a
// best-effort answer check the Result even when err is non-nil.
func Proposed(inst *gen.Instance, opt Options) (res *Result, err error) {
	defer robust.Recover("flow.Proposed", &err)
	opt = opt.prepare()
	inA := opt.Partition
	if inA == nil {
		inA = gen.NetSpec.LevelA
	}
	b := opt.newBudget()
	la, err := routeLevelA(inst, inA, opt, b)
	if err != nil {
		return nil, err
	}
	l := inst.Layout
	if err := l.Place(la.heights); err != nil {
		return nil, err
	}
	res = &Result{
		Flow:          "over-cell",
		ChannelTracks: la.tracks,
		Feedthroughs:  la.feedthroughs,
	}
	bDelays, sticky := routeLevelB(inst, func(s gen.NetSpec) bool { return !inA(s) }, opt, res, b)
	if sticky != nil && res.LevelB == nil {
		return nil, sticky
	}
	res.Area = l.Area()
	res.Width, res.Height = l.Width(), l.Height()
	res.WireLength += la.wireLength
	res.Vias += la.vias
	res.Delay = delay.Summarise(append(bDelays, la.delays...))
	return res, sticky
}

// ChannelFree routes every net at level B; channels collapse to one
// over-cell pitch of separation (paper section 5: "channel areas can
// be eliminated and the entire set of interconnections can be routed
// in level B").
func ChannelFree(inst *gen.Instance, opt Options) (res *Result, err error) {
	defer robust.Recover("flow.ChannelFree", &err)
	opt = opt.prepare()
	l := inst.Layout
	sep := make([]int, l.NumChannels())
	for i := range sep {
		sep[i] = l.Tech.M34Pitch
	}
	if err := l.Place(sep); err != nil {
		return nil, err
	}
	res = &Result{Flow: "channel-free"}
	bDelays, sticky := routeLevelB(inst, nil, opt, res, opt.newBudget())
	if sticky != nil && res.LevelB == nil {
		return nil, sticky
	}
	res.Area = l.Area()
	res.Width, res.Height = l.Width(), l.Height()
	res.Delay = delay.Summarise(bDelays)
	return res, sticky
}

// routeLevelB builds the over-cell grid on the current placement,
// applies the obstacle specification, routes the subset of nets with
// the core router and folds the metrics into res.
//
// A sticky budget error (total cap, deadline, cancellation) does NOT
// discard the work done: the partial routing is verified and folded
// into res like a clean result, and the error is returned alongside —
// res.LevelB != nil distinguishes "partial result available" from a
// hard failure.
func routeLevelB(inst *gen.Instance, subset func(gen.NetSpec) bool, opt Options, res *Result, b *robust.Budget) ([]float64, error) {
	l := inst.Layout
	nl := inst.BuildNetlist(subset)
	if err := nl.Validate(); err != nil {
		return nil, fmt.Errorf("flow: level B netlist: %w", err)
	}
	g, err := buildBGrid(l, nl)
	if err != nil {
		return nil, err
	}
	obstacles := inst.Obstacles()
	for _, o := range obstacles {
		g.BlockRect(o.Rect, o.Mask)
	}
	// Terminals coinciding with obstacles would be silently unblocked
	// by the router's own-terminal lifting; reject them up front.
	for _, n := range nl.Nets() {
		for _, t := range n.Terminals {
			for _, o := range obstacles {
				if o.Mask == grid.MaskBoth && o.Rect.Contains(t.Pos) {
					return nil, robust.Invalidf("flow: net %q terminal %v inside obstacle %v",
						n.Name, t.Pos, o.Rect)
				}
			}
		}
	}
	endB := phase(opt.Tracer, opt.clock(), "level-b")
	cfg := opt.coreConfig(b)
	var cres *core.Result
	var sticky error
	opt.labeled("level-b", func() {
		cres, sticky = core.New(g, cfg).Route(nl.Nets())
	})
	endB()
	if cres == nil {
		return nil, sticky // structurally invalid input: no partial result
	}
	if cres.Failed > 0 && sticky == nil && !opt.AllowPartial {
		return nil, fmt.Errorf("flow: %d level B nets unroutable: %w",
			cres.Failed, robust.ErrUnroutable)
	}
	// Every flow result is verified against the design rules before it
	// is reported: conflicts, per-net connectivity, and obstacle
	// exclusion.
	var regions []verify.Region
	for _, o := range obstacles {
		cols, rows, ok := g.IndexWindow(o.Rect)
		if !ok {
			continue
		}
		regions = append(regions, verify.Region{
			Cols: cols, Rows: rows,
			BlocksH: o.Mask&grid.MaskH != 0,
			BlocksV: o.Mask&grid.MaskV != 0,
		})
	}
	endV := phase(opt.Tracer, opt.clock(), "verify")
	opt.labeled("verify", func() {
		err = verify.LevelB(cres, regions)
	})
	endV()
	if err != nil {
		return nil, fmt.Errorf("flow: routed result failed verification: %w", err)
	}
	res.LevelB = cres
	res.BGrid = g
	res.Degraded = cres.Failed
	res.WireLength += cres.WireLength
	// Routing vias only: corners and T-junctions. Terminal via stacks
	// are part of the terminal design (paper section 2) and identical
	// across flows.
	res.Vias += cres.Vias
	// Per-net Elmore estimates: over-cell nets run on the wide
	// metal3/metal4 pair.
	params := delay.Default()
	var ds []float64
	for _, nr := range cres.Routes {
		if nr.Err != nil {
			continue // degraded nets have no meaningful delay estimate
		}
		ds = append(ds, delay.Estimate(delay.Net{
			WireM34: nr.WireLength,
			Vias:    len(nr.Vias),
			Sinks:   len(nr.Terminals) - 1,
		}, params))
	}
	return ds, sticky
}

// buildBGrid constructs the level B grid: uniform tracks at the
// metal3/metal4 pitch over the whole layout, plus a track at every
// terminal coordinate (the paper's non-uniform track spacing), so
// every terminal lies exactly on a grid point.
func buildBGrid(l *floorplan.Layout, nl *netlist.Netlist) (*grid.Grid, error) {
	var xs, ys []int
	pitch := l.Tech.M34Pitch
	for x := 0; x <= l.Width(); x += pitch {
		xs = append(xs, x)
	}
	for y := 0; y <= l.Height(); y += pitch {
		ys = append(ys, y)
	}
	for _, n := range nl.Nets() {
		for _, t := range n.Terminals {
			xs = append(xs, t.Pos.X)
			ys = append(ys, t.Pos.Y)
		}
	}
	slices.Sort(xs)
	slices.Sort(ys)
	return grid.New(slices.Compact(xs), slices.Compact(ys))
}
