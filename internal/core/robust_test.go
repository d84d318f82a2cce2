package core

import (
	"context"
	"errors"
	"testing"

	"overcell/internal/geom"
	"overcell/internal/grid"
	"overcell/internal/netlist"
	"overcell/internal/robust"
)

// deadAliveNetlist builds the walled instance of
// TestUnroutableNetReported: "dead" cannot route, "alive" can.
func deadAliveNetlist(t *testing.T) (*grid.Grid, *netlist.Netlist) {
	t.Helper()
	g := newGrid(t, 10, 10, 10)
	g.BlockRect(geom.R(0, 40, 90, 50), grid.MaskBoth)
	nl := netlist.New()
	nl.AddPoints("dead", netlist.Signal, geom.Pt(10, 10), geom.Pt(80, 80))
	nl.AddPoints("alive", netlist.Signal, geom.Pt(10, 0), geom.Pt(80, 20))
	return g, nl
}

func TestUnroutableNetMatchesTaxonomy(t *testing.T) {
	g, nl := deadAliveNetlist(t)
	res := routeAll(t, g, nl, DefaultConfig())
	for _, nr := range res.Routes {
		if nr.Net.Name != "dead" {
			continue
		}
		if !errors.Is(nr.Err, robust.ErrUnroutable) {
			t.Errorf("dead net Err = %v, want ErrUnroutable", nr.Err)
		}
		var re *robust.Error
		if !errors.As(nr.Err, &re) || re.Net != "dead" || re.Phase != "level-b" {
			t.Errorf("dead net Err lacks provenance: %v", nr.Err)
		}
	}
}

func TestRipupDisabledLeavesNetFailed(t *testing.T) {
	g, nl := deadAliveNetlist(t)
	cfg := DefaultConfig()
	cfg.RipupPasses = -1 // recovery off: the first-pass failure is final
	res := routeAll(t, g, nl, cfg)
	if res.Failed != 1 {
		t.Fatalf("failed = %d, want 1", res.Failed)
	}
	for _, nr := range res.Routes {
		if nr.Net.Name == "dead" && nr.Err == nil {
			t.Error("dead net has no error with recovery disabled")
		}
	}
}

func TestNetStaysFailedAfterAllPasses(t *testing.T) {
	g, nl := deadAliveNetlist(t)
	cfg := DefaultConfig()
	cfg.RipupPasses = 2
	res := routeAll(t, g, nl, cfg)
	if res.Failed != 1 {
		t.Fatalf("failed = %d, want 1 after exhausting recovery passes", res.Failed)
	}
	var dead *NetRoute
	for _, nr := range res.Routes {
		if nr.Net.Name == "dead" {
			dead = nr
		}
	}
	if dead == nil || dead.Err == nil {
		t.Fatal("dead net must carry a per-net error after all passes")
	}
}

func TestRetryWithRipupNoTerminals(t *testing.T) {
	g := newGrid(t, 10, 10, 10)
	r := New(g, DefaultConfig())
	nl := netlist.New()
	nl.AddPoints("empty", netlist.Signal)
	routes := []NetRoute{{Net: nl.Nets()[0]}}
	// A net that snapped to no terminals has no congestion window to
	// free; the retry must decline rather than panic.
	if r.retryWithRipup(0, routes, &Result{}) {
		t.Error("retryWithRipup claimed success for a net with no terminals")
	}
}

func TestPerNetBudgetDegradesNetRunContinues(t *testing.T) {
	g := newGrid(t, 20, 20, 10)
	nl := netlist.New()
	nl.AddPoints("tiny", netlist.Signal, geom.Pt(0, 0), geom.Pt(30, 30))
	cfg := DefaultConfig()
	cfg.Budget = robust.NewBudget(context.Background(), robust.Limits{NetExpansions: 1})
	res, err := New(g, cfg).Route(nl.Nets())
	if err != nil {
		t.Fatalf("per-net exhaustion must not abort the run: %v", err)
	}
	if res.Failed != 1 {
		t.Fatalf("failed = %d, want 1", res.Failed)
	}
	if !errors.Is(res.Routes[0].Err, robust.ErrBudgetExhausted) {
		t.Errorf("net Err = %v, want ErrBudgetExhausted", res.Routes[0].Err)
	}
}

func TestTotalBudgetReturnsPartialResult(t *testing.T) {
	g := newGrid(t, 20, 20, 10)
	nl := netlist.New()
	for i := 0; i < 6; i++ {
		nl.AddPoints(string(rune('a'+i)), netlist.Signal,
			geom.Pt(i*30, 0), geom.Pt(i*30+10, 60))
	}
	cfg := DefaultConfig()
	cfg.Budget = robust.NewBudget(context.Background(), robust.Limits{TotalExpansions: 25})
	res, err := New(g, cfg).Route(nl.Nets())
	if err == nil {
		t.Fatal("total exhaustion must surface as a run error")
	}
	if !errors.Is(err, robust.ErrBudgetExhausted) {
		t.Fatalf("err = %v, want ErrBudgetExhausted", err)
	}
	if res == nil || len(res.Routes) != 6 {
		t.Fatalf("partial result must list every net, got %+v", res)
	}
	if res.Failed == 0 {
		t.Error("a tripped run must report degraded nets")
	}
	for _, nr := range res.Routes {
		if nr.Err != nil && !errors.Is(nr.Err, robust.ErrBudgetExhausted) {
			t.Errorf("net %q Err = %v, want ErrBudgetExhausted", nr.Net.Name, nr.Err)
		}
	}
}

func TestCancellationMarksAllNets(t *testing.T) {
	g := newGrid(t, 20, 20, 10)
	nl := netlist.New()
	nl.AddPoints("a", netlist.Signal, geom.Pt(0, 0), geom.Pt(50, 50))
	nl.AddPoints("b", netlist.Signal, geom.Pt(100, 0), geom.Pt(150, 50))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := DefaultConfig()
	cfg.Budget = robust.NewBudget(ctx, robust.Limits{})
	res, err := New(g, cfg).Route(nl.Nets())
	if !errors.Is(err, robust.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if res == nil || res.Failed != 2 {
		t.Fatalf("all nets must be marked failed on pre-canceled run, got %+v", res)
	}
	for _, nr := range res.Routes {
		if !errors.Is(nr.Err, robust.ErrCanceled) {
			t.Errorf("net %q Err = %v, want ErrCanceled", nr.Net.Name, nr.Err)
		}
	}
}
