package channel

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// routers pairs each router with the reference implementation it must
// match.
var routers = []struct {
	name      string
	got, want func(*Problem) (*Solution, error)
}{
	{"left-edge", LeftEdge, refLeftEdge},
	{"dogleg", Dogleg, refDogleg},
	{"greedy", Greedy, refGreedy},
}

// MatchReference fails t unless LeftEdge, Dogleg and Greedy return the
// same Solution (reflect.DeepEqual, so nil and empty slices differ) and
// the same error text on p as the reference routers.
func MatchReference(t testing.TB, p *Problem) {
	t.Helper()
	for _, r := range routers {
		if err := sameResult(r.got, r.want, p); err != nil {
			t.Fatalf("%s: %v\ntop=%v\nbot=%v", r.name, err, p.Top, p.Bottom)
		}
	}
}

func sameResult(got, want func(*Problem) (*Solution, error), p *Problem) error {
	gs, gerr := got(p)
	ws, werr := want(p)
	if fmt.Sprint(gerr) != fmt.Sprint(werr) {
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
// flawed channels that every router refuses.
func TestRoutersMatchReference(t *testing.T) {
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
		refused := 0
		for n := 0; n < f.count; {
			p := f.draw()
			if (p.Validate() == nil) != f.valid {
				continue
			}
			n++
			MatchReference(t, p)
			if _, err := Dogleg(p); err != nil {
				refused++
			}
		}
		t.Logf("%s: %d channels, dogleg refused %d", f.name, f.count, refused)
	}
	if err := sameResult(Greedy, refGreedy, &Problem{}); err != nil {
		t.Errorf("empty problem: %v", err)
	}
}
