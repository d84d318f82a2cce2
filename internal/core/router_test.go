package core

import (
	"math/rand"
	"testing"

	"overcell/internal/geom"
	"overcell/internal/grid"
	"overcell/internal/netlist"
	"overcell/internal/tig"
)

func newGrid(t *testing.T, nx, ny, pitch int) *grid.Grid {
	t.Helper()
	g, err := grid.Uniform(nx, ny, pitch)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func routeAll(t *testing.T, g *grid.Grid, nl *netlist.Netlist, cfg Config) *Result {
	t.Helper()
	res, err := New(g, cfg).Route(nl.Nets())
	if err != nil {
		t.Fatalf("Route: %v", err)
	}
	return res
}

// --- structural checkers -------------------------------------------------

// segPoints enumerates all grid points of a segment.
func segPoints(s Segment) []tig.Point {
	var out []tig.Point
	for k := s.Lo; k <= s.Hi; k++ {
		if s.Horizontal {
			out = append(out, tig.Point{Col: k, Row: s.Track})
		} else {
			out = append(out, tig.Point{Col: s.Track, Row: k})
		}
	}
	return out
}

// checkConnected verifies that a net's committed tree electrically
// links all its terminals. Connectivity is layer-aware: wire points
// connect along their own layer only; vias and terminal stacks bridge
// the two layers at their point. Two wires of the same net crossing
// perpendicular without a via are NOT connected there.
func checkConnected(t *testing.T, nr *NetRoute) {
	t.Helper()
	if nr.Err != nil {
		return
	}
	type node struct {
		p     tig.Point
		layer int // 0 = LayerH, 1 = LayerV
	}
	owner := map[node]int{}
	parent := []int{}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) { parent[find(a)] = find(b) }
	newComp := func() int {
		parent = append(parent, len(parent))
		return len(parent) - 1
	}
	addNode := func(nd node, comp int) {
		if prev, ok := owner[nd]; ok {
			union(prev, comp)
		} else {
			owner[nd] = comp
		}
	}
	for _, s := range nr.Segments {
		c := newComp()
		layer := 1
		if s.Horizontal {
			layer = 0
		}
		for _, p := range segPoints(s) {
			addNode(node{p, layer}, c)
		}
	}
	bridge := func(p tig.Point) {
		c := newComp()
		addNode(node{p, 0}, c)
		addNode(node{p, 1}, c)
	}
	for _, v := range nr.Vias {
		bridge(v)
	}
	for _, p := range nr.Terminals {
		bridge(p) // terminal via stacks reach both level B layers
	}
	termComp := -1
	for _, p := range nr.Terminals {
		c := owner[node{p, 0}]
		if len(nr.Segments) == 0 && len(nr.Terminals) == 1 {
			return
		}
		if termComp == -1 {
			termComp = find(c)
		} else if find(c) != termComp {
			t.Errorf("net %q: terminal %v disconnected from tree", nr.Net.Name, p)
		}
	}
	// Every terminal of a non-trivial net must touch wire metal, not
	// just its own stack.
	for _, p := range nr.Terminals {
		if len(nr.Terminals) < 2 {
			break
		}
		touches := false
		for _, s := range nr.Segments {
			for _, q := range segPoints(s) {
				if q == p {
					touches = true
				}
			}
		}
		if !touches {
			t.Errorf("net %q: terminal %v touches no wire", nr.Net.Name, p)
		}
	}
}

// checkNoConflicts verifies the two-layer HV design rules across all
// routed nets: no same-layer same-track span overlap between different
// nets, and no via/terminal of one net touching another net's metal.
func checkNoConflicts(t *testing.T, res *Result) {
	t.Helper()
	type claim struct {
		net  netlist.NetID
		name string
	}
	layerH := map[tig.Point]claim{}
	layerV := map[tig.Point]claim{}
	occupy := func(m map[tig.Point]claim, p tig.Point, c claim, what string) {
		if prev, ok := m[p]; ok && prev.net != c.net {
			t.Errorf("conflict at %v: net %q vs net %q (%s)", p, prev.name, c.name, what)
		}
		m[p] = c
	}
	for _, nr := range res.Routes {
		c := claim{nr.Net.ID, nr.Net.Name}
		for _, s := range nr.Segments {
			for _, p := range segPoints(s) {
				if s.Horizontal {
					occupy(layerH, p, c, "H overlap")
				} else {
					occupy(layerV, p, c, "V overlap")
				}
			}
		}
		for _, v := range nr.Vias {
			occupy(layerH, v, c, "via on H")
			occupy(layerV, v, c, "via on V")
		}
		for _, p := range nr.Terminals {
			occupy(layerH, p, c, "terminal on H")
			occupy(layerV, p, c, "terminal on V")
		}
	}
}

// checkAvoids verifies no net metal enters the index-space rectangle.
func checkAvoids(t *testing.T, res *Result, cols, rows geom.Interval) {
	t.Helper()
	inside := func(p tig.Point) bool {
		return cols.Contains(p.Col) && rows.Contains(p.Row)
	}
	for _, nr := range res.Routes {
		for _, s := range nr.Segments {
			for _, p := range segPoints(s) {
				if inside(p) {
					t.Errorf("net %q crosses obstacle at %v", nr.Net.Name, p)
					return
				}
			}
		}
	}
}

// --- tests ---------------------------------------------------------------

func TestSingleNetLRoute(t *testing.T) {
	g := newGrid(t, 16, 16, 10)
	nl := netlist.New()
	nl.AddPoints("a", netlist.Signal, geom.Pt(20, 20), geom.Pt(120, 100))
	res := routeAll(t, g, nl, DefaultConfig())
	if res.Failed != 0 {
		t.Fatalf("failed nets: %d", res.Failed)
	}
	nr := res.Routes[0]
	if nr.Corners != 1 {
		t.Errorf("corners = %d, want 1", nr.Corners)
	}
	// Manhattan-optimal length: |120-20| + |100-20| = 180.
	if nr.WireLength != 180 {
		t.Errorf("wire length = %d, want 180", nr.WireLength)
	}
	if len(nr.Vias) != 1 {
		t.Errorf("vias = %d, want 1", len(nr.Vias))
	}
	checkConnected(t, nr)
}

func TestTwoNetsShareNoMetal(t *testing.T) {
	g := newGrid(t, 20, 20, 10)
	nl := netlist.New()
	// Two nets with crossing bounding boxes.
	nl.AddPoints("x", netlist.Signal, geom.Pt(10, 10), geom.Pt(150, 150))
	nl.AddPoints("y", netlist.Signal, geom.Pt(150, 10), geom.Pt(10, 150))
	res := routeAll(t, g, nl, DefaultConfig())
	if res.Failed != 0 {
		t.Fatalf("failed nets: %d", res.Failed)
	}
	checkNoConflicts(t, res)
	for _, nr := range res.Routes {
		checkConnected(t, nr)
	}
}

func TestObstacleAvoidance(t *testing.T) {
	g := newGrid(t, 20, 20, 10)
	// Obstacle block in the middle of the only direct corridor.
	g.BlockRect(geom.R(60, 60, 120, 120), grid.MaskBoth)
	nl := netlist.New()
	nl.AddPoints("a", netlist.Signal, geom.Pt(0, 90), geom.Pt(190, 90))
	res := routeAll(t, g, nl, DefaultConfig())
	if res.Failed != 0 {
		t.Fatalf("failed nets: %d", res.Failed)
	}
	checkAvoids(t, res, geom.Iv(6, 12), geom.Iv(6, 12))
	checkConnected(t, res.Routes[0])
}

func TestSingleLayerObstacle(t *testing.T) {
	g := newGrid(t, 20, 20, 10)
	// Obstacle only on the horizontal layer: vertical runs may cross it.
	g.BlockRect(geom.R(0, 80, 190, 100), grid.MaskH)
	nl := netlist.New()
	nl.AddPoints("a", netlist.Signal, geom.Pt(50, 10), geom.Pt(50, 180))
	res := routeAll(t, g, nl, DefaultConfig())
	if res.Failed != 0 {
		t.Fatalf("vertical run blocked by H-only obstacle")
	}
	nr := res.Routes[0]
	if nr.Corners != 0 {
		t.Errorf("corners = %d, want 0 (straight vertical crossing)", nr.Corners)
	}
}

func TestMultiTerminalSteinerTree(t *testing.T) {
	g := newGrid(t, 30, 30, 10)
	nl := netlist.New()
	nl.AddPoints("m", netlist.Signal,
		geom.Pt(50, 50), geom.Pt(250, 50), geom.Pt(150, 250), geom.Pt(150, 150))
	res := routeAll(t, g, nl, DefaultConfig())
	if res.Failed != 0 {
		t.Fatalf("failed nets: %d", res.Failed)
	}
	nr := res.Routes[0]
	checkConnected(t, nr)
	// A Steiner tree must not exceed the sequential-pairs upper bound
	// and must reach the obvious lower bound (half the terminal bbox
	// perimeter won't always hold for 4 pins, so just check > 0).
	if nr.WireLength <= 0 {
		t.Error("empty tree for multi-terminal net")
	}
	// With a T attachment the wire length should be at most the plain
	// star from the first terminal.
	star := 0
	first := nr.Terminals[0]
	for _, p := range nr.Terminals[1:] {
		star += 10 * (geom.Abs(p.Col-first.Col) + geom.Abs(p.Row-first.Row))
	}
	if nr.WireLength > star {
		t.Errorf("tree length %d exceeds star bound %d", nr.WireLength, star)
	}
}

func TestSteinerBeatsOrEqualsPlainMST(t *testing.T) {
	mk := func(plain bool) int {
		g, _ := grid.Uniform(30, 30, 10)
		nl := netlist.New()
		nl.AddPoints("m", netlist.Signal,
			geom.Pt(0, 0), geom.Pt(280, 0), geom.Pt(140, 280), geom.Pt(140, 140))
		cfg := DefaultConfig()
		cfg.PlainMST = plain
		res, err := New(g, cfg).Route(nl.Nets())
		if err != nil || res.Failed != 0 {
			t.Fatalf("route failed: %v / %d", err, res.Failed)
		}
		return res.WireLength
	}
	steiner := mk(false)
	mst := mk(true)
	if steiner > mst {
		t.Errorf("Steiner attach (%d) worse than plain MST (%d)", steiner, mst)
	}
}

func TestCostAvoidsCongestedCorner(t *testing.T) {
	g := newGrid(t, 20, 20, 10)
	// Pre-existing wire cluster near the upper-left L corner (col 2, row 15).
	for row := 13; row <= 17; row++ {
		g.CommitHWire(row, geom.Iv(0, 4))
	}
	nl := netlist.New()
	nl.AddPoints("a", netlist.Signal, geom.Pt(20, 50), geom.Pt(150, 150))
	res := routeAll(t, g, nl, DefaultConfig())
	if res.Failed != 0 {
		t.Fatal("route failed")
	}
	nr := res.Routes[0]
	if len(nr.Vias) != 1 {
		t.Fatalf("vias = %v", nr.Vias)
	}
	// The clean corner is at (15, 5); the congested one at (2, 15).
	if nr.Vias[0] == (tig.Point{Col: 2, Row: 15}) {
		t.Error("router cornered inside the congested cluster")
	}
}

func TestDupTermAvoidsForeignTerminals(t *testing.T) {
	g := newGrid(t, 20, 20, 10)
	nl := netlist.New()
	// Net a has an L choice; unrouted net b's terminals sit right at
	// one of the corner candidates.
	nl.AddPoints("b", netlist.Signal, geom.Pt(20, 140), geom.Pt(40, 160))
	nl.AddPoints("a", netlist.Signal, geom.Pt(20, 50), geom.Pt(150, 150))
	cfg := DefaultConfig()
	cfg.Order = InputOrder
	// Route only net a first conceptually: use InputOrder so b routes
	// first... instead force order so a routes first by criticality.
	nl.Net(1).Criticality = 10
	cfg.Order = CriticalityFirst
	res := routeAll(t, g, nl, cfg)
	if res.Failed != 0 {
		t.Fatal("route failed")
	}
	var a *NetRoute
	for _, nr := range res.Routes {
		if nr.Net.Name == "a" {
			a = nr
		}
	}
	if a == nil || len(a.Vias) != 1 {
		t.Fatalf("unexpected route for a: %+v", a)
	}
	if a.Vias[0] == (tig.Point{Col: 2, Row: 15}) {
		t.Error("router cornered next to unrouted terminals despite dup term")
	}
	checkNoConflicts(t, res)
}

func TestUnroutableNetReported(t *testing.T) {
	g := newGrid(t, 10, 10, 10)
	// Wall both layers across the full grid between the terminals.
	g.BlockRect(geom.R(0, 40, 90, 50), grid.MaskBoth)
	nl := netlist.New()
	nl.AddPoints("dead", netlist.Signal, geom.Pt(10, 10), geom.Pt(80, 80))
	nl.AddPoints("alive", netlist.Signal, geom.Pt(10, 0), geom.Pt(80, 20))
	res := routeAll(t, g, nl, DefaultConfig())
	if res.Failed != 1 {
		t.Fatalf("failed = %d, want 1", res.Failed)
	}
	var dead, alive *NetRoute
	for _, nr := range res.Routes {
		switch nr.Net.Name {
		case "dead":
			dead = nr
		case "alive":
			alive = nr
		}
	}
	if dead.Err == nil {
		t.Error("dead net has no error")
	}
	if alive.Err != nil {
		t.Errorf("alive net failed: %v", alive.Err)
	}
	checkConnected(t, alive)
}

func TestTerminalCollisionRejected(t *testing.T) {
	g := newGrid(t, 10, 10, 10)
	nl := netlist.New()
	nl.AddPoints("a", netlist.Signal, geom.Pt(0, 0), geom.Pt(50, 50))
	nl.AddPoints("b", netlist.Signal, geom.Pt(52, 48), geom.Pt(90, 90)) // snaps onto (5,5)
	if _, err := New(g, DefaultConfig()).Route(nl.Nets()); err == nil {
		t.Error("terminal collision not rejected")
	}
}

func TestDeterminism(t *testing.T) {
	build := func() *Result {
		g, _ := grid.Uniform(25, 25, 10)
		nl := netlist.New()
		rng := rand.New(rand.NewSource(99))
		used := map[geom.Point]bool{}
		pick := func() geom.Point {
			for {
				p := geom.Pt(rng.Intn(25)*10, rng.Intn(25)*10)
				if !used[p] {
					used[p] = true
					return p
				}
			}
		}
		for i := 0; i < 12; i++ {
			nl.AddPoints("n", netlist.Signal, pick(), pick())
		}
		res, err := New(g, DefaultConfig()).Route(nl.Nets())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := build(), build()
	if a.WireLength != b.WireLength || a.Vias != b.Vias || a.Failed != b.Failed {
		t.Errorf("nondeterministic: (%d,%d,%d) vs (%d,%d,%d)",
			a.WireLength, a.Vias, a.Failed, b.WireLength, b.Vias, b.Failed)
	}
	for i := range a.Routes {
		if len(a.Routes[i].Segments) != len(b.Routes[i].Segments) {
			t.Errorf("route %d differs in segment count", i)
		}
	}
}

func TestOrderingModes(t *testing.T) {
	nl := netlist.New()
	nl.AddPoints("short", netlist.Signal, geom.Pt(0, 0), geom.Pt(10, 10))
	nl.AddPoints("long", netlist.Signal, geom.Pt(0, 0), geom.Pt(100, 100))
	crit := nl.AddPoints("crit", netlist.Signal, geom.Pt(0, 0), geom.Pt(20, 20))
	crit.Criticality = 5

	first := func(o Order) string { return nl.Nets()[orderNets(nl.Nets(), o)[0]].Name }
	if got := first(LongestFirst); got != "long" {
		t.Errorf("LongestFirst starts with %q", got)
	}
	if got := first(ShortestFirst); got != "short" {
		t.Errorf("ShortestFirst starts with %q", got)
	}
	if got := first(CriticalityFirst); got != "crit" {
		t.Errorf("CriticalityFirst starts with %q", got)
	}
	if got := first(InputOrder); got != "short" {
		t.Errorf("InputOrder starts with %q", got)
	}
	// orderNets must not mutate the input.
	if nl.Nets()[0].Name != "short" {
		t.Error("orderNets mutated the netlist")
	}
}

func TestDuplicateSnappedTerminalsCollapse(t *testing.T) {
	g := newGrid(t, 5, 5, 100)
	nl := netlist.New()
	// Terminals 2 and 48 both snap to column 0 on a pitch-100 grid.
	nl.AddPoints("a", netlist.Signal, geom.Pt(2, 2), geom.Pt(48, 48), geom.Pt(400, 400))
	res := routeAll(t, g, nl, DefaultConfig())
	if res.Failed != 0 {
		t.Fatal("collapse case failed to route")
	}
	if len(res.Routes[0].Terminals) != 2 {
		t.Errorf("snapped terminals = %d, want 2", len(res.Routes[0].Terminals))
	}
	checkConnected(t, res.Routes[0])
}

// TestRandomisedInvariants routes random netlists over random obstacle
// fields and checks connectivity, conflict-freedom and obstacle
// avoidance for every successful net.
func TestRandomisedInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(2026))
	for trial := 0; trial < 20; trial++ {
		const n = 24
		g, err := grid.Uniform(n, n, 10)
		if err != nil {
			t.Fatal(err)
		}
		// Obstacles.
		type obs struct{ cols, rows geom.Interval }
		var obstacles []obs
		for k := 0; k < 3; k++ {
			c0, r0 := rng.Intn(n-4)+1, rng.Intn(n-4)+1
			o := obs{geom.Iv(c0, c0+rng.Intn(3)), geom.Iv(r0, r0+rng.Intn(3))}
			obstacles = append(obstacles, o)
			g.BlockRect(geom.R(o.cols.Lo*10, o.rows.Lo*10, o.cols.Hi*10, o.rows.Hi*10), grid.MaskBoth)
		}
		blocked := func(p tig.Point) bool {
			for _, o := range obstacles {
				if o.cols.Contains(p.Col) && o.rows.Contains(p.Row) {
					return true
				}
			}
			return false
		}
		// Nets with terminals off the obstacles and mutually distinct.
		nl := netlist.New()
		used := map[tig.Point]bool{}
		for i := 0; i < 10; i++ {
			var pts []geom.Point
			for len(pts) < 2+rng.Intn(2) {
				p := tig.Point{Col: rng.Intn(n), Row: rng.Intn(n)}
				if used[p] || blocked(p) {
					continue
				}
				used[p] = true
				pts = append(pts, geom.Pt(p.Col*10, p.Row*10))
			}
			nl.AddPoints("r", netlist.Signal, pts...)
		}
		res, err := New(g, DefaultConfig()).Route(nl.Nets())
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		checkNoConflicts(t, res)
		for _, nr := range res.Routes {
			checkConnected(t, nr)
		}
		for _, o := range obstacles {
			checkAvoids(t, res, o.cols, o.rows)
		}
	}
}

// TestIncrementalBatches routes two netlist batches through the same
// router and grid: the second batch must respect the first batch's
// committed metal, and the combined result must be conflict-free.
func TestIncrementalBatches(t *testing.T) {
	g := newGrid(t, 20, 20, 10)
	r := New(g, DefaultConfig())

	first := netlist.New()
	first.AddPoints("early", netlist.Signal, geom.Pt(0, 100), geom.Pt(190, 100))
	res1, err := r.Route(first.Nets())
	if err != nil || res1.Failed != 0 {
		t.Fatalf("batch 1: %v / %d", err, res1.Failed)
	}

	second := netlist.New()
	second.AddPoints("late", netlist.Signal, geom.Pt(100, 0), geom.Pt(100, 190))
	res2, err := r.Route(second.Nets())
	if err != nil || res2.Failed != 0 {
		t.Fatalf("batch 2: %v / %d", err, res2.Failed)
	}
	// The late vertical crosses the early horizontal on the other
	// layer: no conflict, no detour needed.
	if res2.Routes[0].Corners != 0 {
		t.Errorf("crossing batch forced %d corners", res2.Routes[0].Corners)
	}
	// A third batch colliding with batch 1's terminal must be rejected
	// outright: lifting a foreign terminal stack would corrupt batch
	// 1's geometry.
	third := netlist.New()
	third.AddPoints("clash", netlist.Signal, geom.Pt(0, 100), geom.Pt(50, 50))
	if _, err := r.Route(third.Nets()); err == nil {
		t.Error("terminal on an occupied point accepted")
	}
}
