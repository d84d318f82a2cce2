package verify

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"overcell/internal/core"
	"overcell/internal/geom"
	"overcell/internal/grid"
	"overcell/internal/netlist"
	"overcell/internal/tig"
)

func routed(t *testing.T) *core.Result {
	t.Helper()
	g, err := grid.Uniform(16, 16, 10)
	if err != nil {
		t.Fatal(err)
	}
	nl := netlist.New()
	nl.AddPoints("a", netlist.Signal, geom.Pt(10, 10), geom.Pt(140, 120))
	nl.AddPoints("b", netlist.Signal, geom.Pt(140, 10), geom.Pt(10, 120))
	res, err := core.New(g, core.DefaultConfig()).Route(nl.Nets())
	if err != nil || res.Failed != 0 {
		t.Fatalf("route: %v / %d", err, res.Failed)
	}
	return res
}

func TestCleanResultPasses(t *testing.T) {
	res := routed(t)
	if err := LevelB(res, nil); err != nil {
		t.Fatalf("clean result rejected: %v", err)
	}
}

func fakeNet(name string, id netlist.NetID) *netlist.Net {
	return &netlist.Net{ID: id, Name: name}
}

func TestConflictsCatchesOverlap(t *testing.T) {
	res := &core.Result{Routes: []*core.NetRoute{
		{Net: fakeNet("x", 0), Segments: []core.Segment{{Horizontal: true, Track: 3, Lo: 0, Hi: 5}}},
		{Net: fakeNet("y", 1), Segments: []core.Segment{{Horizontal: true, Track: 3, Lo: 4, Hi: 8}}},
	}}
	err := Conflicts(res)
	if err == nil || !strings.Contains(err.Error(), "wire conflict") {
		t.Errorf("overlap not caught: %v", err)
	}
	// Perpendicular crossing on different layers is legal.
	ok := &core.Result{Routes: []*core.NetRoute{
		{Net: fakeNet("x", 0), Segments: []core.Segment{{Horizontal: true, Track: 3, Lo: 0, Hi: 5}}},
		{Net: fakeNet("y", 1), Segments: []core.Segment{{Horizontal: false, Track: 2, Lo: 0, Hi: 8}}},
	}}
	if err := Conflicts(ok); err != nil {
		t.Errorf("legal crossing rejected: %v", err)
	}
}

func TestConflictsCatchesViaOnWire(t *testing.T) {
	res := &core.Result{Routes: []*core.NetRoute{
		{Net: fakeNet("x", 0), Segments: []core.Segment{{Horizontal: false, Track: 4, Lo: 0, Hi: 8}}},
		{Net: fakeNet("y", 1), Vias: []tig.Point{{Col: 4, Row: 5}}},
	}}
	if err := Conflicts(res); err == nil {
		t.Error("via on foreign vertical wire not caught")
	}
}

func TestConnectivityCatchesSplit(t *testing.T) {
	// Two disjoint stubs touching neither terminal pair fully.
	res := &core.Result{Routes: []*core.NetRoute{{
		Net:       fakeNet("x", 0),
		Terminals: []tig.Point{{Col: 0, Row: 0}, {Col: 9, Row: 9}},
		Segments: []core.Segment{
			{Horizontal: true, Track: 0, Lo: 0, Hi: 3},
			{Horizontal: true, Track: 9, Lo: 6, Hi: 9},
		},
	}}}
	if err := Connectivity(res); err == nil {
		t.Error("split net not caught")
	}
}

func TestConnectivityLayerAware(t *testing.T) {
	// H wire through (5,5) and V wire through (5,5) without a via:
	// crossing, not connected.
	res := &core.Result{Routes: []*core.NetRoute{{
		Net:       fakeNet("x", 0),
		Terminals: []tig.Point{{Col: 0, Row: 5}, {Col: 5, Row: 0}},
		Segments: []core.Segment{
			{Horizontal: true, Track: 5, Lo: 0, Hi: 9},
			{Horizontal: false, Track: 5, Lo: 0, Hi: 9},
		},
	}}}
	if err := Connectivity(res); err == nil {
		t.Error("via-less crossing treated as connected")
	}
	// Adding the via bridges the layers.
	res.Routes[0].Vias = []tig.Point{{Col: 5, Row: 5}}
	if err := Connectivity(res); err != nil {
		t.Errorf("via-bridged crossing rejected: %v", err)
	}
}

func TestConnectivitySkipsFailedNets(t *testing.T) {
	res := &core.Result{Routes: []*core.NetRoute{{
		Net:       fakeNet("x", 0),
		Terminals: []tig.Point{{Col: 0, Row: 0}, {Col: 9, Row: 9}},
		Err:       errFake{},
	}}}
	if err := Connectivity(res); err != nil {
		t.Errorf("failed net should be skipped: %v", err)
	}
}

type errFake struct{}

func (errFake) Error() string { return "fake" }

func TestConflictsCatchesTerminalStack(t *testing.T) {
	// A terminal stack occupies both layers at its point, so it
	// conflicts with any foreign metal there: a horizontal wire, a
	// vertical wire, a via, or another net's terminal.
	cases := []struct {
		name string
		kind string // expected conflict kind in the error
		at   *core.NetRoute
	}{
		{
			name: "terminal vs horizontal wire",
			kind: "terminal",
			at: &core.NetRoute{Net: fakeNet("y", 1),
				Terminals: []tig.Point{{Col: 3, Row: 2}}},
		},
		{
			name: "terminal vs vertical wire",
			kind: "terminal",
			at: &core.NetRoute{Net: fakeNet("y", 1),
				Terminals: []tig.Point{{Col: 7, Row: 4}}},
		},
		{
			name: "terminal vs via",
			kind: "terminal",
			at: &core.NetRoute{Net: fakeNet("y", 1),
				Terminals: []tig.Point{{Col: 8, Row: 8}}},
		},
		{
			name: "terminal vs terminal",
			kind: "terminal",
			at: &core.NetRoute{Net: fakeNet("y", 1),
				Terminals: []tig.Point{{Col: 9, Row: 9}}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Net x owns: an H wire on row 2 cols 0-5, a V wire on col 7
			// rows 0-5, a via at (8,8), and a terminal at (9,9).
			x := &core.NetRoute{
				Net: fakeNet("x", 0),
				Segments: []core.Segment{
					{Horizontal: true, Track: 2, Lo: 0, Hi: 5},
					{Horizontal: false, Track: 7, Lo: 0, Hi: 5},
				},
				Vias:      []tig.Point{{Col: 8, Row: 8}},
				Terminals: []tig.Point{{Col: 9, Row: 9}},
			}
			err := Conflicts(&core.Result{Routes: []*core.NetRoute{x, tc.at}})
			if err == nil {
				t.Fatalf("%s not caught", tc.name)
			}
			if !strings.Contains(err.Error(), tc.kind+" conflict") {
				t.Errorf("wrong conflict kind: %v", err)
			}
		})
	}
	// The same terminal positions on the SAME net are legal: a net's
	// wire must reach its own terminals.
	same := &core.Result{Routes: []*core.NetRoute{{
		Net:       fakeNet("x", 0),
		Segments:  []core.Segment{{Horizontal: true, Track: 2, Lo: 0, Hi: 5}},
		Terminals: []tig.Point{{Col: 0, Row: 2}, {Col: 5, Row: 2}},
	}}}
	if err := Conflicts(same); err != nil {
		t.Errorf("own terminals on own wire rejected: %v", err)
	}
}

func TestConflictsIncludesFailedNetPartialGeometry(t *testing.T) {
	// A failed net's partial tree is committed metal: Conflicts must
	// treat it exactly like routed geometry, even though Connectivity
	// skips it.
	failed := &core.NetRoute{
		Net:      fakeNet("broken", 0),
		Segments: []core.Segment{{Horizontal: true, Track: 3, Lo: 0, Hi: 6}},
		Err:      errFake{},
	}
	clash := &core.NetRoute{
		Net:      fakeNet("y", 1),
		Segments: []core.Segment{{Horizontal: true, Track: 3, Lo: 5, Hi: 9}},
	}
	err := Conflicts(&core.Result{Routes: []*core.NetRoute{failed, clash}})
	if err == nil || !strings.Contains(err.Error(), "wire conflict") {
		t.Errorf("failed net's committed metal not checked: %v", err)
	}
	// Connectivity still skips it, but Conflicts ran: LevelB on a
	// result with only the failed net reports no error (partial metal
	// alone conflicts with nothing, and a failed net's broken tree is
	// not a connectivity violation).
	alone := &core.Result{Routes: []*core.NetRoute{failed}, Failed: 1}
	if err := LevelB(alone, nil); err != nil {
		t.Errorf("failed net alone should verify clean: %v", err)
	}
}

func TestAvoidsRegions(t *testing.T) {
	res := &core.Result{Routes: []*core.NetRoute{{
		Net:      fakeNet("x", 0),
		Segments: []core.Segment{{Horizontal: true, Track: 5, Lo: 0, Hi: 9}},
	}}}
	both := []Region{{Cols: geom.Iv(3, 6), Rows: geom.Iv(4, 6), BlocksH: true, BlocksV: true}}
	if err := AvoidsRegions(res, both); err == nil {
		t.Error("wire through exclusion region not caught")
	}
	// A V-only region does not forbid horizontal wires.
	vOnly := []Region{{Cols: geom.Iv(3, 6), Rows: geom.Iv(4, 6), BlocksV: true}}
	if err := AvoidsRegions(res, vOnly); err != nil {
		t.Errorf("H wire through V-only region rejected: %v", err)
	}
	// Vias are forbidden in any blocked region.
	res.Routes[0].Vias = []tig.Point{{Col: 5, Row: 5}}
	if err := AvoidsRegions(res, vOnly); err == nil {
		t.Error("via inside region not caught")
	}
}

// TestSortByTrack holds the bucketed sort to slices.SortFunc on random
// intervals whose tracks are dense, sparse, negative or at the ends of
// the int range: the result must be ordered byTrack and hold the same
// intervals.
func TestSortByTrack(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	spreads := []int{1, 4, 64, 1 << 20, math.MaxInt}
	var buckets []int
	for trial := 0; trial < 2000; trial++ {
		spread := spreads[trial%len(spreads)]
		ivs := make([]ival, rng.Intn(40))
		for i := range ivs {
			track := rng.Intn(spread)
			switch rng.Intn(8) {
			case 0, 1, 2, 3:
				track = -track
			case 4:
				if spread == math.MaxInt {
					track = math.MinInt // the spread overflows an int
				}
			}
			lo := rng.Intn(8)
			ivs[i] = ival{track: track, lo: lo, hi: lo + rng.Intn(4), id: i}
		}
		got := slices.Clone(ivs)
		buckets = sortByTrack(got, buckets)
		if !slices.IsSortedFunc(got, byTrack) {
			t.Fatalf("trial %d: not sorted by track and lo: %v", trial, got)
		}
		slices.SortFunc(got, func(a, b ival) int { return a.id - b.id })
		if !slices.Equal(got, ivs) {
			t.Fatalf("trial %d: intervals changed: %v, want %v", trial, got, ivs)
		}
	}
}
