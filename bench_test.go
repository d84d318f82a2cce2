// Benchmarks regenerating every table and figure of the paper's
// evaluation, plus the complexity-claim sweeps and the design-choice
// ablations called out in DESIGN.md. Run with:
//
//	go test -bench=. -benchmem
//
// The custom metrics reported alongside ns/op carry the experimental
// results themselves (percent reductions, search expansions), so a
// bench run doubles as a reproduction run.
package overcell

import (
	"fmt"
	"math/rand"
	"testing"

	"overcell/internal/channel"
	"overcell/internal/core"
	"overcell/internal/flow"
	"overcell/internal/gen"
	"overcell/internal/geom"
	"overcell/internal/grid"
	"overcell/internal/maze"
	"overcell/internal/metrics"
	"overcell/internal/netlist"
	"overcell/internal/paper"
	"overcell/internal/render"
	"overcell/internal/steiner"
	"overcell/internal/tig"
)

var instances = []struct {
	name string
	mk   func() (*gen.Instance, error)
}{
	{"ami33", gen.Ami33Like},
	{"xerox", gen.XeroxLike},
	{"ex3", gen.Ex3Like},
}

// BenchmarkTable1Instances regenerates the three instances of Table 1.
func BenchmarkTable1Instances(b *testing.B) {
	for _, m := range instances {
		b.Run(m.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				inst, err := m.mk()
				if err != nil {
					b.Fatal(err)
				}
				if len(inst.Nets) == 0 {
					b.Fatal("empty instance")
				}
			}
		})
	}
}

func runFlow(b *testing.B, mk func() (*gen.Instance, error),
	f func(*gen.Instance, flow.Options) (*flow.Result, error)) *flow.Result {
	b.Helper()
	inst, err := mk()
	if err != nil {
		b.Fatal(err)
	}
	res, err := f(inst, flow.Options{})
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkTable2FlowComparison reproduces Table 2: the proposed
// over-cell flow against the two-layer channel baseline. The percent
// reductions are reported as benchmark metrics.
func BenchmarkTable2FlowComparison(b *testing.B) {
	for _, m := range instances {
		b.Run(m.name, func(b *testing.B) {
			var c metrics.Comparison
			for i := 0; i < b.N; i++ {
				c = metrics.Comparison{
					Instance: m.name,
					Base:     runFlow(b, m.mk, flow.TwoLayerBaseline),
					New:      runFlow(b, m.mk, flow.Proposed),
				}
			}
			b.ReportMetric(c.AreaReduction(), "%area-red")
			b.ReportMetric(c.WireReduction(), "%wire-red")
			b.ReportMetric(c.ViaReduction(), "%via-red")
		})
	}
}

// BenchmarkTable3FourLayerChannel reproduces Table 3: the over-cell
// flow against the optimistic (50% tracks) four-layer channel model.
func BenchmarkTable3FourLayerChannel(b *testing.B) {
	for _, m := range instances {
		b.Run(m.name, func(b *testing.B) {
			var c metrics.Comparison
			for i := 0; i < b.N; i++ {
				c = metrics.Comparison{
					Instance: m.name,
					Base:     runFlow(b, m.mk, flow.FourLayerChannel),
					New:      runFlow(b, m.mk, flow.Proposed),
				}
			}
			b.ReportMetric(c.AreaReduction(), "%area-red")
		})
	}
}

// BenchmarkChannelFreeFlow reproduces the section 5 variant: all nets
// at level B, channels eliminated.
func BenchmarkChannelFreeFlow(b *testing.B) {
	for _, m := range instances {
		b.Run(m.name, func(b *testing.B) {
			var c metrics.Comparison
			for i := 0; i < b.N; i++ {
				c = metrics.Comparison{
					Base: runFlow(b, m.mk, flow.Proposed),
					New:  runFlow(b, m.mk, flow.ChannelFree),
				}
			}
			b.ReportMetric(c.AreaReduction(), "%area-red")
		})
	}
}

// BenchmarkFigure1TIG builds the Figure 1 instance and its Track
// Intersection Graph.
func BenchmarkFigure1TIG(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g, _, _, err := paper.Figure1()
		if err != nil {
			b.Fatal(err)
		}
		tg := tig.BuildGraph(g, geom.Iv(0, 5), geom.Iv(0, 3))
		if len(tg.Edges) == 0 {
			b.Fatal("empty TIG")
		}
	}
}

// BenchmarkFigure2PathSelection runs the Figure 2 walkthrough: the two
// MBFS searches and the corner-count selection.
func BenchmarkFigure2PathSelection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rv, rh, ok := paper.Figure2Search()
		if !ok || len(rv.Paths) != 1 || len(rh.Paths) != 2 {
			b.Fatal("walkthrough diverged from the paper")
		}
	}
}

// BenchmarkFigure3Ami33Render runs the proposed flow on ami33 and
// renders the level B routing.
func BenchmarkFigure3Ami33Render(b *testing.B) {
	for i := 0; i < b.N; i++ {
		inst, res, err := paper.Figure3()
		if err != nil {
			b.Fatal(err)
		}
		art := render.GridASCII(res.BGrid, res.LevelB, 4)
		if len(art) == 0 || inst == nil {
			b.Fatal("empty figure")
		}
	}
}

// scalingNetlist builds n random two-terminal nets on an s-by-s grid.
func scalingNetlist(s, n int, seed int64) (*grid.Grid, *netlist.Netlist) {
	g, err := grid.Uniform(s, s, 10)
	if err != nil {
		panic(err)
	}
	rng := rand.New(rand.NewSource(seed))
	nl := netlist.New()
	used := map[geom.Point]bool{}
	pick := func() geom.Point {
		for {
			p := geom.Pt(rng.Intn(s)*10, rng.Intn(s)*10)
			if !used[p] {
				used[p] = true
				return p
			}
		}
	}
	for i := 0; i < n; i++ {
		nl.AddPoints(fmt.Sprintf("n%d", i), netlist.Signal, pick(), pick())
	}
	return g, nl
}

// BenchmarkLevelBScalingGrid checks the O(n·h·v) time claim along the
// grid-size axis: fixed net count, growing surface.
func BenchmarkLevelBScalingGrid(b *testing.B) {
	for _, s := range []int{48, 96, 192} {
		b.Run(fmt.Sprintf("grid%dx%d", s, s), func(b *testing.B) {
			expanded := 0
			for i := 0; i < b.N; i++ {
				g, nl := scalingNetlist(s, 40, 11)
				res, err := core.New(g, core.DefaultConfig()).Route(nl.Nets())
				if err != nil {
					b.Fatal(err)
				}
				expanded = res.Expanded
			}
			b.ReportMetric(float64(expanded), "nodes-expanded")
		})
	}
}

// BenchmarkLevelBScalingNets checks the claim along the net-count axis.
func BenchmarkLevelBScalingNets(b *testing.B) {
	for _, n := range []int{25, 50, 100} {
		b.Run(fmt.Sprintf("nets%d", n), func(b *testing.B) {
			expanded := 0
			for i := 0; i < b.N; i++ {
				g, nl := scalingNetlist(96, n, 13)
				res, err := core.New(g, core.DefaultConfig()).Route(nl.Nets())
				if err != nil {
					b.Fatal(err)
				}
				expanded = res.Expanded
			}
			b.ReportMetric(float64(expanded), "nodes-expanded")
		})
	}
}

// BenchmarkLevelB measures the level B router alone on the largest
// scaling workload (96x96 grid, 100 nets), reporting allocations: the
// benchmark behind the levelb/nets100/seq allocation gate.
func BenchmarkLevelB(b *testing.B) {
	b.ReportAllocs()
	expanded := 0
	for i := 0; i < b.N; i++ {
		g, nl := scalingNetlist(96, 100, 13)
		res, err := core.New(g, core.DefaultConfig()).Route(nl.Nets())
		if err != nil {
			b.Fatal(err)
		}
		expanded = res.Expanded
	}
	b.ReportMetric(float64(expanded), "nodes-expanded")
}

// BenchmarkMazeVsTIG reproduces the section 3 claim that the TIG
// search completes connections faster on average than a maze router:
// identical two-terminal connections on an obstacle field, solved by
// both. The nodes-expanded metric is the machine-independent
// comparison.
func BenchmarkMazeVsTIG(b *testing.B) {
	setup := func() (*grid.Grid, [][2]tig.Point) {
		g, err := grid.Uniform(96, 96, 10)
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(21))
		for k := 0; k < 12; k++ {
			x, y := rng.Intn(80)+5, rng.Intn(80)+5
			g.BlockRect(geom.R(x*10, y*10, (x+rng.Intn(8))*10, (y+rng.Intn(8))*10), grid.MaskBoth)
		}
		var conns [][2]tig.Point
		for len(conns) < 60 {
			a := tig.Point{Col: rng.Intn(96), Row: rng.Intn(96)}
			c := tig.Point{Col: rng.Intn(96), Row: rng.Intn(96)}
			if a == c || !g.PointFree(a.Col, a.Row) || !g.PointFree(c.Col, c.Row) {
				continue
			}
			conns = append(conns, [2]tig.Point{a, c})
		}
		return g, conns
	}
	b.Run("tig", func(b *testing.B) {
		g, conns := setup()
		full := tig.Config{ColBounds: geom.Iv(0, 95), RowBounds: geom.Iv(0, 95)}
		expanded := 0
		for i := 0; i < b.N; i++ {
			expanded = 0
			for _, c := range conns {
				res, ok := tig.Search(g, c[0], c[1], full)
				if !ok {
					b.Fatal("tig failed on an open field")
				}
				expanded += res.Expanded
			}
		}
		b.ReportMetric(float64(expanded)/float64(len(conns)), "nodes/conn")
	})
	b.Run("maze", func(b *testing.B) {
		g, conns := setup()
		cb, rb := geom.Iv(0, 95), geom.Iv(0, 95)
		expanded := 0
		for i := 0; i < b.N; i++ {
			expanded = 0
			for _, c := range conns {
				res, ok := maze.Route(g, c[0], c[1], cb, rb)
				if !ok {
					b.Fatal("maze failed on an open field")
				}
				expanded += res.Expanded
			}
		}
		b.ReportMetric(float64(expanded)/float64(len(conns)), "nodes/conn")
	})
}

// --- Ablations -------------------------------------------------------------

func benchProposedWithCore(b *testing.B, cfg core.Config) *flow.Result {
	b.Helper()
	inst, err := gen.Ami33Like()
	if err != nil {
		b.Fatal(err)
	}
	res, err := flow.Proposed(inst, flow.Options{Core: &cfg})
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkAblationCostWeights compares the paper's sparse weights,
// the dense preset, and a wire-length-only objective (section 3.2).
func BenchmarkAblationCostWeights(b *testing.B) {
	for _, w := range []struct {
		name string
		w    core.Weights
	}{
		{"sparse", core.SparseWeights()},
		{"dense", core.DenseWeights()},
		{"length-only", core.LengthOnlyWeights()},
	} {
		b.Run(w.name, func(b *testing.B) {
			var res *flow.Result
			for i := 0; i < b.N; i++ {
				cfg := core.DefaultConfig()
				cfg.Weights = w.w
				res = benchProposedWithCore(b, cfg)
			}
			b.ReportMetric(float64(res.WireLength), "wire")
			b.ReportMetric(float64(res.Vias), "vias")
		})
	}
}

// BenchmarkAblationNetOrdering compares the paper's longest-distance
// default against the alternatives (section 3).
func BenchmarkAblationNetOrdering(b *testing.B) {
	for _, o := range []core.Order{core.LongestFirst, core.ShortestFirst, core.CriticalityFirst} {
		b.Run(o.String(), func(b *testing.B) {
			var res *flow.Result
			for i := 0; i < b.N; i++ {
				cfg := core.DefaultConfig()
				cfg.Order = o
				res = benchProposedWithCore(b, cfg)
			}
			b.ReportMetric(float64(res.WireLength), "wire")
			b.ReportMetric(float64(res.LevelB.Expanded), "nodes-expanded")
		})
	}
}

// BenchmarkAblationTrackPruning measures the examine-each-vertex-once
// rule (section 3.1): strict vs relaxed.
func BenchmarkAblationTrackPruning(b *testing.B) {
	for _, r := range []struct {
		name    string
		relaxed bool
	}{{"strict", false}, {"relaxed", true}} {
		b.Run(r.name, func(b *testing.B) {
			var res *flow.Result
			for i := 0; i < b.N; i++ {
				cfg := core.DefaultConfig()
				cfg.RelaxedVisit = r.relaxed
				res = benchProposedWithCore(b, cfg)
			}
			b.ReportMetric(float64(res.LevelB.Expanded), "nodes-expanded")
			b.ReportMetric(float64(res.Vias), "vias")
		})
	}
}

// BenchmarkAblationSteiner compares the Steiner-attaching Prim
// decomposition with the plain MST (section 3.3).
func BenchmarkAblationSteiner(b *testing.B) {
	for _, m := range []struct {
		name  string
		plain bool
	}{{"steiner", false}, {"plain-mst", true}} {
		b.Run(m.name, func(b *testing.B) {
			var res *flow.Result
			for i := 0; i < b.N; i++ {
				cfg := core.DefaultConfig()
				cfg.PlainMST = m.plain
				res = benchProposedWithCore(b, cfg)
			}
			b.ReportMetric(float64(res.WireLength), "wire")
		})
	}
}

// BenchmarkAblationPartition varies the net partitioning policy
// (sections 2 and 5): the paper's by-class split, everything over the
// cells, and a half-perimeter threshold split.
func BenchmarkAblationPartition(b *testing.B) {
	type variant struct {
		name string
		run  func(*gen.Instance, flow.Options) (*flow.Result, error)
	}
	for _, v := range []variant{
		{"by-class", flow.Proposed},
		{"all-level-b", flow.ChannelFree},
		{"all-level-a", flow.TwoLayerBaseline},
	} {
		b.Run(v.name, func(b *testing.B) {
			var res *flow.Result
			for i := 0; i < b.N; i++ {
				res = runFlow(b, gen.Ami33Like, v.run)
			}
			b.ReportMetric(float64(res.Area), "area")
		})
	}
}

// BenchmarkChannelRouters compares the three channel routing
// algorithms on the baseline flow's channel problems.
func BenchmarkChannelRouters(b *testing.B) {
	for _, a := range []struct {
		name string
		algo flow.ChannelAlgo
	}{
		{"auto", flow.AutoChannel},
		{"greedy", flow.GreedyChannel},
	} {
		b.Run(a.name, func(b *testing.B) {
			var res *flow.Result
			for i := 0; i < b.N; i++ {
				inst, err := gen.Ami33Like()
				if err != nil {
					b.Fatal(err)
				}
				res, err = flow.TwoLayerBaseline(inst, flow.Options{Channel: a.algo})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.Area), "area")
			b.ReportMetric(float64(res.Vias), "vias")
		})
	}
}

// BenchmarkSteinerLibrary exercises the pure geometric RST/MST
// construction used by wire estimation.
func BenchmarkSteinerLibrary(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	pts := make([]geom.Point, 24)
	for i := range pts {
		pts[i] = geom.Pt(rng.Intn(1000), rng.Intn(1000))
	}
	b.Run("rst", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if t := steiner.RST(pts); t.Length == 0 {
				b.Fatal("empty tree")
			}
		}
	})
	b.Run("mst", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, l := steiner.MST(pts); l == 0 {
				b.Fatal("empty tree")
			}
		}
	})
}

// BenchmarkAblationCoupling measures the optional cross-talk term of
// section 3.2 on the proposed flow.
func BenchmarkAblationCoupling(b *testing.B) {
	for _, v := range []struct {
		name     string
		coupling float64
	}{{"off", 0}, {"on", 5}} {
		b.Run(v.name, func(b *testing.B) {
			var res *flow.Result
			for i := 0; i < b.N; i++ {
				cfg := core.DefaultConfig()
				cfg.Weights.Coupling = v.coupling
				res = benchProposedWithCore(b, cfg)
			}
			b.ReportMetric(float64(res.WireLength), "wire")
			b.ReportMetric(float64(res.Vias), "vias")
		})
	}
}

// BenchmarkAblationRipup measures the recovery machinery: the
// benchmark family completes in the first strict pass, so the rip-up
// ablation shows the zero-overhead property of the disabled passes.
func BenchmarkAblationRipup(b *testing.B) {
	for _, v := range []struct {
		name   string
		passes int
	}{{"enabled", 0}, {"disabled", -1}} {
		b.Run(v.name, func(b *testing.B) {
			var res *flow.Result
			for i := 0; i < b.N; i++ {
				cfg := core.DefaultConfig()
				cfg.RipupPasses = v.passes
				res = benchProposedWithCore(b, cfg)
			}
			b.ReportMetric(float64(res.LevelB.Failed), "failed")
		})
	}
}

// BenchmarkChannelAlgorithms compares the four detailed channel
// routers head to head on a family of random channel problems
// (left-edge and friends skip instances with cyclic constraints).
func BenchmarkChannelAlgorithms(b *testing.B) {
	problems := func() []*channel.Problem {
		rng := rand.New(rand.NewSource(77))
		var out []*channel.Problem
		for len(out) < 20 {
			p := randomChannel(rng, 30, 8)
			if p.Validate() == nil {
				out = append(out, p)
			}
		}
		return out
	}()
	algos := []struct {
		name string
		run  func(*channel.Problem) (*channel.Solution, error)
	}{
		{"left-edge", channel.LeftEdge},
		{"dogleg", channel.Dogleg},
		{"net-merge", channel.NetMerge},
		{"greedy", channel.Greedy},
	}
	for _, a := range algos {
		b.Run(a.name, func(b *testing.B) {
			tracks, solved := 0, 0
			for i := 0; i < b.N; i++ {
				tracks, solved = 0, 0
				for _, p := range problems {
					s, err := a.run(p)
					if err != nil {
						continue
					}
					tracks += s.Tracks
					solved++
				}
			}
			if solved == 0 {
				b.Fatal("algorithm solved nothing")
			}
			b.ReportMetric(float64(tracks)/float64(solved), "tracks/channel")
			b.ReportMetric(float64(solved), "solved-of-20")
		})
	}
}

// randomChannel builds a valid random channel instance (same scheme as
// the channel package's tests).
func randomChannel(rng *rand.Rand, width, nets int) *channel.Problem {
	p := &channel.Problem{Top: make([]int, width), Bottom: make([]int, width)}
	type slot struct{ col, side int }
	var free []slot
	for c := 0; c < width; c++ {
		free = append(free, slot{c, 0}, slot{c, 1})
	}
	rng.Shuffle(len(free), func(i, j int) { free[i], free[j] = free[j], free[i] })
	idx := 0
	for n := 1; n <= nets && idx+1 < len(free); n++ {
		pins := 2 + rng.Intn(3)
		for k := 0; k < pins && idx < len(free); k++ {
			s := free[idx]
			idx++
			if s.side == 0 {
				p.Top[s.col] = n
			} else {
				p.Bottom[s.col] = n
			}
		}
	}
	count := map[int]int{}
	for _, n := range p.Top {
		count[n]++
	}
	for _, n := range p.Bottom {
		count[n]++
	}
	for c := 0; c < width; c++ {
		if count[p.Top[c]] < 2 {
			p.Top[c] = 0
		}
		if count[p.Bottom[c]] < 2 {
			p.Bottom[c] = 0
		}
	}
	return p
}

// BenchmarkDelayMotivation quantifies the paper's section 2 rationale
// for the net partition: over-cell nets are shorter and run on the
// wide, low-resistance layer pair, so their Elmore delays drop.
func BenchmarkDelayMotivation(b *testing.B) {
	for _, m := range instances {
		b.Run(m.name, func(b *testing.B) {
			var base, prop *flow.Result
			for i := 0; i < b.N; i++ {
				base = runFlow(b, m.mk, flow.TwoLayerBaseline)
				prop = runFlow(b, m.mk, flow.Proposed)
			}
			b.ReportMetric(metrics.Reduction(int64(base.Delay.Mean), int64(prop.Delay.Mean)), "%mean-delay-red")
			b.ReportMetric(metrics.Reduction(int64(base.Delay.Max), int64(prop.Delay.Max)), "%max-delay-red")
		})
	}
}

// BenchmarkInstanceSizeSweep scales the chip (rows x cells x nets) and
// reports the area reduction of the proposed flow at each size: the
// paper's advantage is not an artefact of one instance size.
func BenchmarkInstanceSizeSweep(b *testing.B) {
	sizes := []struct {
		name        string
		rows, cells int
		signal      int
		levelA      []int
	}{
		{"small-16c", 3, 16, 60, []int{20, 12, 6, 4}},
		{"medium-48c", 5, 48, 260, []int{32, 24, 10, 8, 6, 4}},
		{"large-96c", 8, 96, 600, []int{40, 38, 12, 10, 8, 8, 6, 6, 4, 4}},
	}
	for _, sz := range sizes {
		b.Run(sz.name, func(b *testing.B) {
			mk := func() (*gen.Instance, error) {
				return gen.Generate(gen.Params{
					Name: sz.name, Seed: 1000 + int64(sz.cells),
					Rows: sz.rows, Cells: sz.cells,
					CellWMin: 240, CellWMax: 420, CellHMin: 150, CellHMax: 230,
					RowGap: 96, Margin: 48,
					SensitivePerMille: 60,
					SignalNets:        sz.signal,
					LevelANets:        sz.levelA,
					RailHalfWidth:     6,
				})
			}
			var c metrics.Comparison
			for i := 0; i < b.N; i++ {
				c = metrics.Comparison{
					Base: runFlow(b, mk, flow.TwoLayerBaseline),
					New:  runFlow(b, mk, flow.Proposed),
				}
			}
			b.ReportMetric(c.AreaReduction(), "%area-red")
			b.ReportMetric(c.WireReduction(), "%wire-red")
		})
	}
}
