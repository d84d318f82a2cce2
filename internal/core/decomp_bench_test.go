package core_test

import (
	"testing"

	"overcell/internal/core"
	"overcell/internal/flow"
	"overcell/internal/gen"
	"overcell/internal/grid"
	"overcell/internal/netlist"
)

// BenchmarkDecomposition times the paper's section 3.3 decomposition,
// the modified Prim that attaches each terminal to the nearest point of
// the routed tree, with the searches it drives. Its inputs are pinned
// from the channel-free flow on gen.Ami33Like, which routes every net
// at level B: the 45 nets with three or more snapped terminals (313
// terminals, up to 45 on one net). Each iteration routes them on a
// fresh copy of that flow's level B grid with the instance's
// obstacles, built while the timer is stopped.
func BenchmarkDecomposition(b *testing.B) {
	inst, err := gen.Ami33Like()
	if err != nil {
		b.Fatal(err)
	}
	res, err := flow.ChannelFree(inst, flow.Options{})
	if err != nil {
		b.Fatal(err)
	}
	var nets []*netlist.Net
	for _, nr := range res.LevelB.Routes {
		if len(nr.Terminals) >= 3 {
			nets = append(nets, nr.Net)
		}
	}
	xs, ys := make([]int, res.BGrid.NX()), make([]int, res.BGrid.NY())
	for i := range xs {
		xs[i] = res.BGrid.X(i)
	}
	for j := range ys {
		ys[j] = res.BGrid.Y(j)
	}
	obstacles := inst.Obstacles()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		g, err := grid.New(xs, ys)
		if err != nil {
			b.Fatal(err)
		}
		for _, o := range obstacles {
			g.BlockRect(o.Rect, o.Mask)
		}
		b.StartTimer()
		out, err := core.New(g, core.DefaultConfig()).Route(nets)
		if err != nil {
			b.Fatal(err)
		}
		if out.Failed > 0 {
			b.Fatalf("%d of %d nets failed", out.Failed, len(nets))
		}
	}
}
