package core_test

import (
	"testing"

	"overcell/internal/core"
	"overcell/internal/flow"
	"overcell/internal/gen"
	"overcell/internal/geom"
	"overcell/internal/grid"
	"overcell/internal/tig"
)

// BenchmarkSelectBest times the paper's section 3.2 path selection
// alone: the bounded search for the cheapest of an MBFS's candidate
// paths, scored by wire length and the proximity and congestion terms
// at each corner. Its inputs are pinned from the channel-free flow on
// gen.Ami33Like: each routed two-pin net is lifted from that flow's
// level B grid, searched again up the router's ladder of windows until
// a window yields paths, and put back. Each iteration scores every
// candidate set on the routed grid.
func BenchmarkSelectBest(b *testing.B) {
	inst, err := gen.Ami33Like()
	if err != nil {
		b.Fatal(err)
	}
	res, err := flow.ChannelFree(inst, flow.Options{})
	if err != nil {
		b.Fatal(err)
	}
	g := res.BGrid
	var sets [][]tig.Path
	paths := 0
	for _, nr := range res.LevelB.Routes {
		if len(nr.Terminals) != 2 || nr.Err != nil {
			continue
		}
		if cands := researchLifted(g, nr); len(cands) > 0 {
			sets = append(sets, cands)
			paths += len(cands)
		}
	}
	if len(sets) == 0 {
		b.Fatal("no two-pin net was found again")
	}
	sel := core.NewSelector(g, core.DefaultConfig().Weights)
	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		for _, set := range sets {
			_, cost, _ := sel.SelectBest(set)
			sink += cost
		}
	}
	if sink < 0 {
		b.Fatal("negative path cost")
	}
	b.ReportMetric(float64(len(sets)), "sets/op")
	b.ReportMetric(float64(paths), "paths/op")
}

// researchLifted lifts a routed two-pin net's metal and terminal stacks
// from g, searches between its terminals in the strict windows of
// core.DefaultExpansions and returns the first window's paths, after
// putting the net back.
func researchLifted(g *grid.Grid, nr *core.NetRoute) []tig.Path {
	for _, s := range nr.Segments {
		if s.Horizontal {
			g.LiftHWire(s.Track, geom.Iv(s.Lo, s.Hi))
		} else {
			g.LiftVWire(s.Track, geom.Iv(s.Lo, s.Hi))
		}
	}
	for _, v := range nr.Vias {
		g.LiftVia(v.Col, v.Row)
	}
	for _, p := range nr.Terminals {
		g.UnblockPoint(p.Col, p.Row)
	}
	defer func() {
		for _, s := range nr.Segments {
			if s.Horizontal {
				g.CommitHWire(s.Track, geom.Iv(s.Lo, s.Hi))
			} else {
				g.CommitVWire(s.Track, geom.Iv(s.Lo, s.Hi))
			}
		}
		for _, v := range nr.Vias {
			g.CommitVia(v.Col, v.Row)
		}
		for _, p := range nr.Terminals {
			g.BlockPoint(p.Col, p.Row)
		}
	}()
	from, to := nr.Terminals[0], nr.Terminals[1]
	cols, rows := geom.Iv(0, g.NX()-1), geom.Iv(0, g.NY()-1)
	for _, m := range core.DefaultExpansions {
		cfg := tig.Config{ColBounds: cols, RowBounds: rows}
		if m >= 0 {
			cfg.ColBounds = geom.Iv(min(from.Col, to.Col)-m, max(from.Col, to.Col)+m).Intersect(cols)
			cfg.RowBounds = geom.Iv(min(from.Row, to.Row)-m, max(from.Row, to.Row)+m).Intersect(rows)
		}
		if sr, ok := tig.Search(g, from, to, cfg); ok {
			return sr.Paths
		}
	}
	return nil
}
