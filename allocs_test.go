package overcell

import (
	"fmt"
	"testing"

	"overcell/internal/core"
	"overcell/internal/flow"
	"overcell/internal/gen"
	"overcell/internal/geom"
	"overcell/internal/grid"
	"overcell/internal/netlist"
)

// TestAllocationGates bounds allocations per call on three pinned
// workloads at 1.10 times the counts measured when grid occupancy
// became bitsets: 2,098 for levelb_nets100, 8,642 for table2_ami33 and
// 8,568 for channelfree_ex3. Allocation counts do not depend on the host or
// its clock, so growth past a bound is a regression wherever it shows.
// Each call builds its own inputs; testing.AllocsPerRun skips one
// warm-up call, so it reads a little below a single cold run.
func TestAllocationGates(t *testing.T) {
	for _, tc := range []struct {
		name  string
		max   float64
		route func() error
	}{
		{"levelb_nets100", 2308, routeLevelBNets100},
		{"table2_ami33", 9506, routeTable2Ami33},
		{"channelfree_ex3", 9425, routeChannelFreeEx3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var err error
			got := testing.AllocsPerRun(3, func() {
				if e := tc.route(); e != nil {
					err = e
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%.0f allocs per call (bound %.0f)", got, tc.max)
			if got > tc.max {
				t.Errorf("%.0f allocs per call, bound %.0f", got, tc.max)
			}
		})
	}
}

// routeLevelBNets100 routes 100 two-terminal nets on a 96x96 uniform
// grid at pitch 10 straight through the level B router. Terminals come
// from a 64-bit LCG seeded 13 rather than math/rand, so the instance
// never depends on the standard library's generator.
func routeLevelBNets100() error {
	g, err := grid.Uniform(96, 96, 10)
	if err != nil {
		return err
	}
	nl := netlist.New()
	seed := uint64(13)
	next := func(n int) int {
		seed = seed*6364136223846793005 + 1442695040888963407
		return int((seed >> 33) % uint64(n))
	}
	used := map[geom.Point]bool{}
	pick := func() geom.Point {
		for {
			p := geom.Pt(next(96)*10, next(96)*10)
			if !used[p] {
				used[p] = true
				return p
			}
		}
	}
	for i := 0; i < 100; i++ {
		nl.AddPoints(fmt.Sprintf("n%d", i), netlist.Signal, pick(), pick())
	}
	_, err = core.New(g, core.DefaultConfig()).Route(nl.Nets())
	return err
}

// routeTable2Ami33 runs the Table 2 comparison on ami33: the two-layer
// baseline, then the proposed flow on a freshly generated copy, both
// with default options.
func routeTable2Ami33() error {
	for _, run := range []func(*gen.Instance, flow.Options) (*flow.Result, error){
		flow.TwoLayerBaseline, flow.Proposed,
	} {
		inst, err := gen.Ami33Like()
		if err != nil {
			return err
		}
		if _, err := run(inst, flow.Options{}); err != nil {
			return err
		}
	}
	return nil
}

// routeChannelFreeEx3 runs the channel-free flow on ex3 with default
// options: every net at level B, so the multi-terminal nets' Steiner
// decomposition is a large share of the work.
func routeChannelFreeEx3() error {
	inst, err := gen.Ex3Like()
	if err != nil {
		return err
	}
	_, err = flow.ChannelFree(inst, flow.Options{})
	return err
}
