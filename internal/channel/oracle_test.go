package channel

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// routers pairs each router with the reference implementation it must
// match. Where refNetMerge refuses a channel as cyclic, the number of
// groups it reports unplaced follows map order, so cyclicClass has
// such refusals compared by class only.
var routers = []struct {
	name        string
	got, want   func(*Problem) (*Solution, error)
	cyclicClass bool
}{
	{"left-edge", LeftEdge, refLeftEdge, false},
	{"dogleg", Dogleg, refDogleg, false},
	{"greedy", Greedy, refGreedy, false},
	{"net-merge", NetMerge, refNetMerge, true},
}

// cyclic begins every refusal of cyclic vertical constraints.
const cyclic = "channel: cyclic vertical constraints"

// MatchReference fails t unless every router returns the same Solution
// (reflect.DeepEqual, so nil and empty slices differ) and the same
// error text on p as its reference routers.
func MatchReference(t testing.TB, p *Problem) {
	t.Helper()
	matchReference(t, p, true)
}

// matchReference is MatchReference with net-merge held to its
// reference only when netMerge is set: refNetMerge takes about 140 ms
// on a channel of the wide family.
func matchReference(t testing.TB, p *Problem, netMerge bool) {
	t.Helper()
	for _, r := range routers {
		if r.name == "net-merge" && !netMerge {
			continue
		}
		if err := sameResult(r.got, r.want, p, r.cyclicClass); err != nil {
			t.Fatalf("%s: %v\ntop=%v\nbot=%v", r.name, err, p.Top, p.Bottom)
		}
	}
}

func sameResult(got, want func(*Problem) (*Solution, error), p *Problem, cyclicClass bool) error {
	gs, gerr := got(p)
	ws, werr := want(p)
	g, w := fmt.Sprint(gerr), fmt.Sprint(werr)
	if cyclicClass && strings.HasPrefix(g, cyclic) && strings.HasPrefix(w, cyclic) {
		g, w = cyclic, cyclic
	}
	if g != w {
		return fmt.Errorf("error %v, reference %v", gerr, werr)
	}
	if !reflect.DeepEqual(gs, ws) {
		return fmt.Errorf("solution\n%+v\nreference\n%+v", gs, ws)
	}
	return nil
}

// windowProblem draws a channel of the baseline flow's size: each net
// keeps its 2-5 pins within reach columns of a random centre, as cell
// pins facing one channel do.
func windowProblem(rng *rand.Rand, width, nets, reach int) *Problem {
	p := &Problem{Top: make([]int, width), Bottom: make([]int, width)}
	for n := 1; n <= nets; n++ {
		centre := rng.Intn(width)
		for k := 2 + rng.Intn(4); k > 0; k-- {
			c := min(max(centre+rng.Intn(2*reach+1)-reach, 0), width-1)
			edge := p.Top
			if rng.Intn(2) == 1 {
				edge = p.Bottom
			}
			if edge[c] == 0 {
				edge[c] = n
			}
		}
	}
	dropSinglePins(p)
	return p
}

// slotProblem fills every pin slot with a net below nets or none, as
// the fuzz targets decode their input: same-net columns and through
// nets are common.
func slotProblem(rng *rand.Rand, width, nets int) *Problem {
	p := &Problem{Top: make([]int, width), Bottom: make([]int, width)}
	for c := 0; c < width; c++ {
		p.Top[c] = rng.Intn(nets)
		p.Bottom[c] = rng.Intn(nets)
	}
	dropSinglePins(p)
	return p
}

func dropSinglePins(p *Problem) {
	count := map[int]int{}
	for c := range p.Top {
		count[p.Top[c]]++
		count[p.Bottom[c]]++
	}
	for c := range p.Top {
		if count[p.Top[c]] < 2 {
			p.Top[c] = 0
		}
		if count[p.Bottom[c]] < 2 {
			p.Bottom[c] = 0
		}
	}
}

// flawProblem breaks a valid channel in one way the routers must
// refuse: a net with a single pin, negative net numbers, or edges of
// different lengths.
func flawProblem(rng *rand.Rand, p *Problem) *Problem {
	switch rng.Intn(3) {
	case 0:
		fresh := 1
		for c := range p.Top {
			fresh = max(fresh, p.Top[c]+1, p.Bottom[c]+1)
		}
		// Only an empty slot: with two single-pin nets, the reference
		// names the one map order yields.
		edge := p.Top
		if rng.Intn(2) == 1 {
			edge = p.Bottom
		}
		if c := rng.Intn(len(edge)); edge[c] == 0 {
			edge[c] = fresh
		}
	case 1:
		for k := 1 + rng.Intn(2); k > 0; k-- {
			edge := p.Top
			if rng.Intn(2) == 1 {
				edge = p.Bottom
			}
			edge[rng.Intn(len(edge))] = -1 - rng.Intn(3)
		}
	default:
		p.Bottom = p.Bottom[:rng.Intn(len(p.Bottom))]
	}
	return p
}

// TestRoutersMatchReference holds the flat routers to the map-based
// ones on 10,000 small random channels of three families, on 150
// channels 400-660 columns wide drawn with 100-190 nets (about nine in
// ten keep 100 or more once single-pin nets are dropped), and on 500
// flawed channels that every router refuses. Net merging is held to
// its reference on the first wideNetMerge wide channels only.
func TestRoutersMatchReference(t *testing.T) {
	const wideNetMerge = 12
	rng := rand.New(rand.NewSource(21))
	families := []struct {
		name  string
		count int
		valid bool // keep only draws whose validity is this
		draw  func() *Problem
	}{
		{"random", 4000, true, func() *Problem { return randomProblem(rng, 2+rng.Intn(40), 1+rng.Intn(12)) }},
		{"slots", 6000, true, func() *Problem { return slotProblem(rng, 1+rng.Intn(32), 2+rng.Intn(6)) }},
		{"wide", 150, true, func() *Problem {
			return windowProblem(rng, 400+rng.Intn(261), 100+rng.Intn(91), 5+rng.Intn(60))
		}},
		{"flawed", 500, false, func() *Problem {
			return flawProblem(rng, randomProblem(rng, 2+rng.Intn(40), 1+rng.Intn(12)))
		}},
	}
	for _, f := range families {
		refused, merged := 0, 0
		for n := 0; n < f.count; {
			p := f.draw()
			if (p.Validate() == nil) != f.valid {
				continue
			}
			n++
			matchReference(t, p, f.name != "wide" || n <= wideNetMerge)
			if _, err := Dogleg(p); err != nil {
				refused++
			}
			if _, err := NetMerge(p); err == nil {
				merged++
			}
		}
		t.Logf("%s: %d channels, dogleg refused %d, net merging solved %d", f.name, f.count, refused, merged)
	}
	if err := sameResult(Greedy, refGreedy, &Problem{}, false); err != nil {
		t.Errorf("empty problem: %v", err)
	}
}
