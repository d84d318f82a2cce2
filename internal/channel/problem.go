// Package channel implements classic two-layer channel routing, the
// substrate the paper's methodology uses for level A ("routing can be
// performed using existing channel routing packages", section 2) and
// for the two-layer baseline flow of the evaluation.
//
// The model is the standard one: a rectangular channel with pins on
// its top and bottom edges at integer columns, horizontal wire runs on
// one layer along tracks, vertical runs on the other layer along
// columns, and vias at the junctions. Four routers are provided:
//
//   - LeftEdge: the constrained left-edge algorithm (no doglegs);
//     fails on cyclic vertical constraints.
//   - NetMerge: Yoshimura and Kuh's net merging: nets whose spans do
//     not overlap share a track when the merge keeps the longest
//     vertical constraint chain short. Like LeftEdge it gives each net
//     one track, so it fails on cyclic vertical constraints.
//   - Dogleg: left-edge over pin-to-pin subnets, the classic dogleg
//     refinement; fails only on irreducible cycles.
//   - Greedy: a column-scan router in the spirit of Rivest & Fiduccia
//     that doglegs and splits nets freely and widens the channel when
//     stuck, so it always completes.
//
// Solutions carry full geometry and a Validate oracle that checks
// design rules and per-net electrical connectivity, used heavily by
// the tests.
package channel

import (
	"fmt"
	"slices"
)

// Problem is a channel routing instance. Top[c] and Bottom[c] hold the
// net number pinned at column c on the respective edge; 0 means no
// pin. Net numbers are arbitrary positive integers.
type Problem struct {
	Top, Bottom []int
}

// Width returns the number of pin columns.
func (p *Problem) Width() int { return len(p.Top) }

// Validate checks structural soundness: equal edge lengths, and every
// net appearing at least twice (a net with a single pin cannot be
// routed).
func (p *Problem) Validate() error {
	_, _, err := p.pinNets()
	return err
}

// pinRef is one pin of a problem. slot is 2·column + side, side 0 for
// the top edge and 1 for the bottom; net is the index of the pin's net
// in the problem's distinct nets.
type pinRef struct {
	slot, net int
}

func (q pinRef) col() int { return q.slot / 2 }

func (q pinRef) top() bool { return q.slot%2 == 0 }

// facing reports whether a and b are the top and bottom pins of one
// column.
func facing(a, b pinRef) bool { return a.top() && b.slot == a.slot+1 }

// pinNets validates p and lists its pins in slot order: column by
// column, the top pin first. nets holds the distinct net numbers
// ascending. The routers key their per-net state by index into nets
// and size their arrays by the pins, not the width, so no per-pin
// lookup goes through a map and a sparse channel costs little.
func (p *Problem) pinNets() (nets []int, pins []pinRef, err error) {
	if len(p.Top) != len(p.Bottom) {
		return nil, nil, fmt.Errorf("channel: top has %d columns, bottom %d", len(p.Top), len(p.Bottom))
	}
	if len(p.Top) == 0 {
		return nil, nil, fmt.Errorf("channel: empty problem")
	}
	for _, edge := range [2][]int{p.Top, p.Bottom} {
		for _, net := range edge {
			if net < 0 {
				return nil, nil, fmt.Errorf("channel: negative net number %d", net)
			}
		}
	}
	nets, pins, single := p.listPins()
	if single != 0 {
		return nil, nil, fmt.Errorf("channel: net %d has a single pin", single)
	}
	return nets, pins, nil
}

// listPins is pinNets without the checks. single is the least net
// number with one pin, or 0 when every net has two or more.
func (p *Problem) listPins() (nets []int, pins []pinRef, single int) {
	n := 0
	for _, edge := range [2][]int{p.Top, p.Bottom} {
		for _, net := range edge {
			if net != 0 {
				n++
			}
		}
	}
	pins = make([]pinRef, 0, n)
	nets = make([]int, 0, n)
	for c := range p.Top {
		for side, net := range [2]int{p.Top[c], p.Bottom[c]} {
			if net != 0 {
				// The net number stands in for its index until nets is
				// sorted.
				pins = append(pins, pinRef{slot: 2*c + side, net: net})
				nets = append(nets, net)
			}
		}
	}
	slices.Sort(nets)
	for i := 0; i < len(nets) && single == 0; {
		j := i + 1
		for j < len(nets) && nets[j] == nets[i] {
			j++
		}
		if j-i < 2 {
			single = nets[i]
		}
		i = j
	}
	nets = slices.Compact(nets)
	for i := range pins {
		pins[i].net, _ = slices.BinarySearch(nets, pins[i].net)
	}
	return nets, pins, single
}

// pinSpans returns the leftmost and rightmost pin column of each of n
// nets, named by index as in pins.
func pinSpans(n int, pins []pinRef) [][2]int {
	span := make([][2]int, n)
	for k := range span {
		span[k][0] = -1
	}
	for _, q := range pins {
		if span[q.net][0] < 0 {
			span[q.net][0] = q.col()
		}
		span[q.net][1] = q.col()
	}
	return span
}

// Density returns the maximum column density: the largest number of
// nets whose pin spans cross any single column boundary. It is the
// classic lower bound on the number of tracks. It needs the bottom
// edge to be at least as long as the top and checks nothing else; a
// net with a single pin spans its own column.
func (p *Problem) Density() int {
	nets, pins, _ := p.listPins()
	return density(p.Width(), pinSpans(len(nets), pins))
}

// density sweeps the spans of a channel width columns wide: each span
// adds one at its first column and removes it past its last, and the
// running sum is the density of each column.
func density(width int, spans [][2]int) int {
	delta := make([]int, width+1)
	for _, sp := range spans {
		delta[sp[0]]++
		delta[sp[1]+1]--
	}
	best, d := 0, 0
	for _, step := range delta {
		d += step
		best = max(best, d)
	}
	return best
}
