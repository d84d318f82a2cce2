package core

import (
	"testing"

	"overcell/internal/geom"
	"overcell/internal/netlist"
)

func TestOrderString(t *testing.T) {
	cases := map[Order]string{
		LongestFirst:     "longest-first",
		ShortestFirst:    "shortest-first",
		CriticalityFirst: "criticality-first",
		InputOrder:       "input-order",
		Order(99):        "order(?)",
	}
	for o, want := range cases {
		if o.String() != want {
			t.Errorf("%d.String() = %q, want %q", o, o.String(), want)
		}
	}
}

func TestRipupConfigDefaults(t *testing.T) {
	var c Config
	if c.ripupPasses() != DefaultRipupPasses {
		t.Errorf("default passes = %d", c.ripupPasses())
	}
	c.RipupPasses = -1
	if c.ripupPasses() != 0 {
		t.Errorf("disabled passes = %d", c.ripupPasses())
	}
	c.RipupPasses = 7
	if c.ripupPasses() != 7 {
		t.Errorf("explicit passes = %d", c.ripupPasses())
	}
	if c.ripupVictims() != DefaultRipupVictims {
		t.Errorf("default victims = %d", c.ripupVictims())
	}
	c.RipupVictims = 3
	if c.ripupVictims() != 3 {
		t.Errorf("explicit victims = %d", c.ripupVictims())
	}
}

func TestExpansionsDefault(t *testing.T) {
	var c Config
	got := c.expansions()
	if len(got) != len(DefaultExpansions) {
		t.Fatalf("expansions = %v", got)
	}
	c.Expansions = []int{2}
	if len(c.expansions()) != 1 || c.expansions()[0] != 2 {
		t.Errorf("custom expansions = %v", c.expansions())
	}
}

func TestWeightPresets(t *testing.T) {
	s := SparseWeights()
	if s.WL != 1 || s.Drg != 10 || s.Dup != 10 || s.Acf != 10 {
		t.Errorf("sparse = %+v (paper: w1=1, w2*=10)", s)
	}
	d := DenseWeights()
	if d.Drg <= s.Drg {
		t.Error("dense preset should weight congestion more than sparse")
	}
	lo := LengthOnlyWeights()
	if lo.Drg != 0 || lo.Dup != 0 || lo.Acf != 0 {
		t.Errorf("length-only = %+v", lo)
	}
}

func TestOrderNetsStability(t *testing.T) {
	nl := netlist.New()
	// Two nets with identical half-perimeter: ID order must break the tie.
	nl.AddPoints("first", netlist.Signal, geom.Pt(0, 0), geom.Pt(10, 10))
	nl.AddPoints("second", netlist.Signal, geom.Pt(5, 5), geom.Pt(15, 15))
	nets := nl.Nets()
	out := orderNets(nets, LongestFirst)
	if nets[out[0]].Name != "first" || nets[out[1]].Name != "second" {
		t.Errorf("tie not broken by ID: %s, %s", nets[out[0]].Name, nets[out[1]].Name)
	}
	// Criticality dominates within the ordering.
	nl.Net(1).Criticality = 3
	out = orderNets(nets, CriticalityFirst)
	if nets[out[0]].Name != "second" {
		t.Errorf("criticality not honoured: %s first", nets[out[0]].Name)
	}
}
