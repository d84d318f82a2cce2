package channel

import (
	"math/rand"
	"reflect"
	"testing"
)

func validate(t *testing.T, p *Problem, s *Solution, algo string) {
	t.Helper()
	if err := s.Validate(p); err != nil {
		t.Fatalf("%s solution invalid: %v", algo, err)
	}
	if s.Tracks < p.Density() && s.Tracks > 0 {
		// Any correct solution needs at least density tracks, except
		// degenerate all-through-vertical channels.
		hasSeg := len(s.Horizontals) > 0
		if hasSeg {
			t.Errorf("%s: tracks %d below density %d", algo, s.Tracks, p.Density())
		}
	}
}

func TestProblemValidate(t *testing.T) {
	good := &Problem{Top: []int{1, 0, 2}, Bottom: []int{0, 1, 2}}
	if err := good.Validate(); err != nil {
		t.Errorf("good problem rejected: %v", err)
	}
	if err := (&Problem{Top: []int{1}, Bottom: []int{1, 2}}).Validate(); err == nil {
		t.Error("mismatched edges accepted")
	}
	if err := (&Problem{}).Validate(); err == nil {
		t.Error("empty problem accepted")
	}
	if err := (&Problem{Top: []int{1, 0}, Bottom: []int{0, 0}}).Validate(); err == nil {
		t.Error("single-pin net accepted")
	}
	if err := (&Problem{Top: []int{-1, 1}, Bottom: []int{1, 0}}).Validate(); err == nil {
		t.Error("negative net accepted")
	}
}

func TestDensity(t *testing.T) {
	p := &Problem{
		Top:    []int{1, 2, 3, 0},
		Bottom: []int{0, 1, 2, 3},
	}
	// Spans: 1=[0,1], 2=[1,2], 3=[2,3]. At column 1: nets 1,2 -> 2; at 2: 2,3 -> 2.
	if d := p.Density(); d != 2 {
		t.Errorf("density = %d, want 2", d)
	}
}

// scanDensity is the width × nets definition of Density: at each
// column, count the nets whose span covers it.
func scanDensity(p *Problem) int {
	spans := refSpans(p)
	best := 0
	for c := 0; c < p.Width(); c++ {
		d := 0
		for _, sp := range spans {
			if sp[0] <= c && c <= sp[1] {
				d++
			}
		}
		best = max(best, d)
	}
	return best
}

// TestDensityMatchesScan checks the sweep against scanDensity on
// random edges, single-pin nets and empty columns included.
func TestDensityMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 2000; trial++ {
		width, nets := 1+rng.Intn(40), 1+rng.Intn(12)
		p := &Problem{Top: make([]int, width), Bottom: make([]int, width)}
		for c := 0; c < width; c++ {
			p.Top[c] = rng.Intn(nets + 1)
			p.Bottom[c] = rng.Intn(nets + 1)
		}
		if got, want := p.Density(), scanDensity(p); got != want {
			t.Fatalf("trial %d: Density = %d, scan %d\ntop=%v\nbot=%v", trial, got, want, p.Top, p.Bottom)
		}
	}
}

func TestLeftEdgeSimple(t *testing.T) {
	p := &Problem{
		Top:    []int{1, 2, 0, 1},
		Bottom: []int{0, 0, 2, 0},
	}
	s, err := LeftEdge(p)
	if err != nil {
		t.Fatal(err)
	}
	validate(t, p, s, "left-edge")
	if s.Tracks < p.Density() {
		t.Errorf("tracks %d < density %d", s.Tracks, p.Density())
	}
}

func TestLeftEdgeRespectsVCG(t *testing.T) {
	// Column 1: top net 1 above bottom net 2; their spans overlap.
	p := &Problem{
		Top:    []int{1, 1, 0},
		Bottom: []int{2, 2, 0},
	}
	s, err := LeftEdge(p)
	if err != nil {
		t.Fatal(err)
	}
	validate(t, p, s, "left-edge")
	var t1, t2 = -1, -1
	for _, h := range s.Horizontals {
		switch h.Net {
		case 1:
			t1 = h.Track
		case 2:
			t2 = h.Track
		}
	}
	if t1 >= t2 {
		t.Errorf("VCG violated: net1 track %d not above net2 track %d", t1, t2)
	}
}

func TestLeftEdgeCycleFails(t *testing.T) {
	p := &Problem{
		Top:    []int{1, 2},
		Bottom: []int{2, 1},
	}
	if _, err := LeftEdge(p); err == nil {
		t.Error("cyclic VCG accepted by left-edge")
	}
	if _, err := Dogleg(p); err == nil {
		t.Error("irreducible 2-pin cycle accepted by dogleg")
	}
}

func TestGreedyResolvesCycle(t *testing.T) {
	p := &Problem{
		Top:    []int{1, 2},
		Bottom: []int{2, 1},
	}
	s, err := Greedy(p)
	if err != nil {
		t.Fatal(err)
	}
	validate(t, p, s, "greedy")
}

func TestDoglegBreaksMultiPinCycle(t *testing.T) {
	// Net 1 has pins spanning a cycle that splitting resolves:
	// col0: 1 over 2; col2: 2 over 1. With whole nets this is a cycle;
	// with subnets 1a=[0,1],1b=[1,2] the cycle breaks.
	p := &Problem{
		Top:    []int{1, 1, 2},
		Bottom: []int{2, 0, 1},
	}
	if _, err := LeftEdge(p); err == nil {
		t.Fatal("expected whole-net cycle")
	}
	s, err := Dogleg(p)
	if err != nil {
		t.Fatalf("dogleg failed on splittable cycle: %v", err)
	}
	validate(t, p, s, "dogleg")
}

func TestThroughVerticalNet(t *testing.T) {
	// Net 1 has both pins in one column: a straight vertical, no track.
	p := &Problem{
		Top:    []int{1, 2, 2},
		Bottom: []int{1, 0, 0},
	}
	for algo, route := range map[string]func(*Problem) (*Solution, error){
		"left-edge": LeftEdge, "dogleg": Dogleg, "greedy": Greedy, "net-merge": NetMerge,
	} {
		s, err := route(p)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		validate(t, p, s, algo)
	}
}

func TestSameNetColumnPair(t *testing.T) {
	// Net 1 top and bottom at column 1, plus pins elsewhere.
	p := &Problem{
		Top:    []int{1, 1, 0, 2},
		Bottom: []int{0, 1, 2, 0},
	}
	s, err := Greedy(p)
	if err != nil {
		t.Fatal(err)
	}
	validate(t, p, s, "greedy")
}

func TestMetrics(t *testing.T) {
	p := &Problem{
		Top:    []int{1, 0, 1},
		Bottom: []int{0, 1, 0},
	}
	s, err := LeftEdge(p)
	if err != nil {
		t.Fatal(err)
	}
	validate(t, p, s, "left-edge")
	if s.Tracks != 1 {
		t.Fatalf("tracks = %d, want 1", s.Tracks)
	}
	// One horizontal [0,2] = 2 column pitches; three pin verticals of
	// one track pitch each (top: 1 pitch to track; bottom: 1 pitch up).
	wl := s.WireLength(10, 7)
	want := 2*10 + 7 + 7 + 7
	if wl != want {
		t.Errorf("wire length = %d, want %d", wl, want)
	}
	// Vias: one tap per pin vertical.
	if v := s.ViaCount(); v != 3 {
		t.Errorf("vias = %d, want 3", v)
	}
	if h := s.Height(7); h != 14 {
		t.Errorf("height = %d, want 14", h)
	}
}

func TestDoglegReducesTracksOnDenseNet(t *testing.T) {
	// A long multi-pin net whose subnets can interleave with net 2.
	p := &Problem{
		Top:    []int{2, 1, 0, 1, 0},
		Bottom: []int{0, 2, 1, 0, 1},
	}
	le, errLE := LeftEdge(p)
	dl, errDL := Dogleg(p)
	if errDL != nil {
		t.Fatalf("dogleg: %v", errDL)
	}
	validate(t, p, dl, "dogleg")
	if errLE == nil {
		validate(t, p, le, "left-edge")
		if dl.Tracks > le.Tracks {
			t.Errorf("dogleg (%d tracks) worse than left-edge (%d)", dl.Tracks, le.Tracks)
		}
	}
}

// randomProblem builds a valid random channel instance.
func randomProblem(rng *rand.Rand, width, nets int) *Problem {
	p := &Problem{Top: make([]int, width), Bottom: make([]int, width)}
	// Place each net at 2-4 random distinct slots.
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
	// Drop single-pin nets (can happen when slots run out).
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

// TestRandomProblemsAllRouters validates every router's output on a
// large family of random channels. LeftEdge and Dogleg may refuse
// (cyclic constraints); Greedy must always succeed.
func TestRandomProblemsAllRouters(t *testing.T) {
	rng := rand.New(rand.NewSource(12345))
	leFail, dlFail := 0, 0
	const trials = 120
	for trial := 0; trial < trials; trial++ {
		p := randomProblem(rng, 8+rng.Intn(24), 3+rng.Intn(8))
		if err := p.Validate(); err != nil {
			continue // degenerate instance (all pins dropped)
		}
		if s, err := LeftEdge(p); err != nil {
			leFail++
		} else {
			validate(t, p, s, "left-edge")
		}
		if s, err := Dogleg(p); err != nil {
			dlFail++
		} else {
			validate(t, p, s, "dogleg")
		}
		if s, err := NetMerge(p); err == nil {
			validate(t, p, s, "net-merge")
		}
		s, err := Greedy(p)
		if err != nil {
			t.Fatalf("trial %d: greedy failed: %v\ntop=%v\nbot=%v", trial, err, p.Top, p.Bottom)
		}
		validate(t, p, s, "greedy")
	}
	if leFail == trials {
		t.Error("left-edge failed on every instance; generator suspicious")
	}
	t.Logf("left-edge refusals: %d/%d, dogleg refusals: %d/%d", leFail, trials, dlFail, trials)
}

func TestSolutionValidateCatchesBadGeometry(t *testing.T) {
	p := &Problem{Top: []int{1, 0, 1}, Bottom: []int{0, 2, 2}}
	// Overlapping horizontals on one track.
	bad := &Solution{
		Tracks: 1, Width: 3,
		Horizontals: []Segment{
			{Net: 1, Track: 0, Lo: 0, Hi: 2},
			{Net: 2, Track: 0, Lo: 1, Hi: 2},
		},
	}
	if err := bad.Validate(p); err == nil {
		t.Error("track overlap not caught")
	}
	// Tap outside vertical span.
	bad2 := &Solution{
		Tracks: 2, Width: 3,
		Horizontals: []Segment{{Net: 1, Track: 1, Lo: 0, Hi: 2}},
		Verticals: []Vertical{
			{Net: 1, Col: 0, FromTrack: 0, ToTrack: 0, TouchTop: true, Taps: []int{1}},
		},
	}
	if err := bad2.Validate(p); err == nil {
		t.Error("out-of-span tap not caught")
	}
	// Disconnected pin.
	bad3 := &Solution{Tracks: 1, Width: 3,
		Horizontals: []Segment{{Net: 1, Track: 0, Lo: 0, Hi: 2}}}
	if err := bad3.Validate(p); err == nil {
		t.Error("unconnected pins not caught")
	}
}

// TestVCGEdges checks the vertical constraints LeftEdge and NetMerge
// pack by: one edge per column with two different nets, from the top
// net's item to the bottom net's.
func TestVCGEdges(t *testing.T) {
	p := &Problem{
		Top:    []int{1, 2, 1, 3},
		Bottom: []int{2, 1, 0, 3},
	}
	w, err := wholeNetsOf(p)
	if err != nil {
		t.Fatal(err)
	}
	// Nets 1 and 2 are items 0 and 1; net 3 is a through vertical.
	if want := [][2]int{{0, 1}, {1, 0}}; !reflect.DeepEqual(w.edges, want) {
		t.Errorf("edges = %v, want %v", w.edges, want)
	}
	if want := []int{0, 1, -1}; !reflect.DeepEqual(w.itemOf, want) {
		t.Errorf("itemOf = %v, want %v", w.itemOf, want)
	}
}

func TestNetMergeSharesTracks(t *testing.T) {
	// Two nets with disjoint spans and no constraints share one track.
	p := &Problem{
		Top:    []int{1, 1, 0, 2, 2},
		Bottom: []int{0, 0, 0, 0, 0},
	}
	s, err := NetMerge(p)
	if err != nil {
		t.Fatal(err)
	}
	validate(t, p, s, "net-merge")
	if s.Tracks != 1 {
		t.Errorf("tracks = %d, want 1 (merged)", s.Tracks)
	}
}

func TestNetMergeRespectsVCG(t *testing.T) {
	// Net 1 must stay above net 2; net 3's span begins after net 1 ends
	// and may merge with it, but never with a cycle.
	p := &Problem{
		Top:    []int{1, 1, 0, 3, 3},
		Bottom: []int{2, 2, 0, 0, 0},
	}
	s, err := NetMerge(p)
	if err != nil {
		t.Fatal(err)
	}
	validate(t, p, s, "net-merge")
	tracks := map[int]int{}
	for _, h := range s.Horizontals {
		tracks[h.Net] = h.Track
	}
	if tracks[1] >= tracks[2] {
		t.Errorf("VCG violated: net1 on %d, net2 on %d", tracks[1], tracks[2])
	}
	if s.Tracks != 2 {
		t.Errorf("tracks = %d, want 2 (net 3 merged with net 1)", s.Tracks)
	}
}

func TestNetMergeCycleFails(t *testing.T) {
	p := &Problem{
		Top:    []int{1, 2},
		Bottom: []int{2, 1},
	}
	if _, err := NetMerge(p); err == nil {
		t.Error("cyclic constraints accepted by net merging")
	}
}

func TestNetMergeMatchesDensityOnConstraintFree(t *testing.T) {
	// Without vertical constraints the merged track count should land
	// at the density lower bound (interval graph colouring by merging).
	p := &Problem{
		Top:    []int{1, 2, 1, 3, 2, 4, 3, 0, 4},
		Bottom: []int{0, 0, 0, 0, 0, 0, 0, 0, 0},
	}
	s, err := NetMerge(p)
	if err != nil {
		t.Fatal(err)
	}
	validate(t, p, s, "net-merge")
	if s.Tracks != p.Density() {
		t.Errorf("tracks = %d, want density %d", s.Tracks, p.Density())
	}
}

func TestGreedyExtendsChannelForSplitNets(t *testing.T) {
	// The classic cyclic pair forces a split that collapses past the
	// last pin column: the greedy router must extend the channel.
	p := &Problem{
		Top:    []int{1, 2},
		Bottom: []int{2, 1},
	}
	s, err := Greedy(p)
	if err != nil {
		t.Fatal(err)
	}
	validate(t, p, s, "greedy")
	if s.Width <= p.Width() {
		t.Errorf("width = %d, want > %d (extension columns)", s.Width, p.Width())
	}
}
