package channel

import (
	"cmp"
	"fmt"
	"slices"
)

// item is one track-assignable unit: a whole net for LeftEdge, a
// pin-to-pin subnet for Dogleg. Items are named by their position in
// the slice handed to packLEA.
type item struct {
	net    int
	lo, hi int
}

// packLEA runs the constrained left-edge algorithm: tracks are filled
// from the top; only items whose vertical-constraint predecessors are
// already placed are eligible; each track takes a maximal set of
// non-overlapping eligible intervals in left-edge order (by lo, then
// by position). An edge {a, b} keeps item a on a track above item b;
// an edge may repeat. It returns the track of each item and the number
// of tracks, or an error when the constraint graph is cyclic.
func packLEA(items []item, edges [][2]int) ([]int, int, error) {
	n := len(items)
	indeg := make([]int, n)
	// Successor lists share one array: item i's successors are
	// succ[off[i]:off[i+1]].
	off := make([]int, n+1)
	for _, e := range edges {
		off[e[0]+1]++
		indeg[e[1]]++
	}
	for i := 1; i <= n; i++ {
		off[i] += off[i-1]
	}
	succ := make([]int, len(edges))
	for _, e := range edges {
		succ[off[e[0]]] = e[1]
		off[e[0]]++
	}
	// Filling advanced each off[i] to the start of item i+1's list.
	copy(off[1:], off[:n])
	off[0] = 0

	remaining := make([]int, n)
	for i := range remaining {
		remaining[i] = i
	}
	slices.SortFunc(remaining, func(a, b int) int {
		if c := cmp.Compare(items[a].lo, items[b].lo); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	trackOf := make([]int, n)
	placed := make([]int, 0, n)
	track := 0
	for len(remaining) > 0 {
		lastHi := -2
		lastNet := 0
		placed = placed[:0]
		// The items this track leaves are compacted to the front of
		// remaining, in order.
		left := remaining[:0]
		for _, i := range remaining {
			it := items[i]
			// Different nets may abut at adjacent columns (their pin
			// verticals land one column apart); subnets of the same net
			// may even share the pin column — they merge into one run
			// tapped by the same vertical.
			tooClose := it.lo <= lastHi
			if it.net == lastNet && lastNet != 0 {
				tooClose = it.lo < lastHi
			}
			if indeg[i] > 0 || tooClose {
				left = append(left, i)
				continue
			}
			trackOf[i] = track
			placed = append(placed, i)
			lastHi = it.hi
			lastNet = it.net
		}
		if len(placed) == 0 {
			return nil, 0, fmt.Errorf("channel: cyclic vertical constraints (%d items unplaced)", len(remaining))
		}
		for _, i := range placed {
			for _, s := range succ[off[i]:off[i+1]] {
				indeg[s]--
			}
		}
		remaining = left
		track++
	}
	return trackOf, track, nil
}

// segments lays each item along its packed track; an all-through
// channel has none.
func segments(items []item, trackOf []int) []Segment {
	if len(items) == 0 {
		return nil
	}
	out := make([]Segment, len(items))
	for i, it := range items {
		out[i] = Segment{Net: it.net, Track: trackOf[i], Lo: it.lo, Hi: it.hi}
	}
	return out
}

// LeftEdge routes the channel with the constrained left-edge
// algorithm: every net occupies exactly one track; vertical
// constraints (top pin above bottom pin at shared columns) are
// honoured by the packing order. It fails when the vertical constraint
// graph is cyclic — the classic limitation doglegs were invented for.
func LeftEdge(p *Problem) (*Solution, error) {
	w, err := wholeNetsOf(p)
	if err != nil {
		return nil, err
	}
	trackOf, tracks, err := packLEA(w.items, w.edges)
	if err != nil {
		return nil, err
	}
	return w.solution(p, "left-edge", trackOf, tracks), nil
}

// wholeNets is a channel in the model of LeftEdge and NetMerge, where a
// net takes one track from its leftmost pin to its rightmost. Each net
// whose pins span columns is one item, in net order; a net whose pins
// all sit in one column is routed as a straight vertical, and its
// itemOf is -1. edges are the vertical constraints between items: at a
// column whose top and bottom pins belong to different items, the top
// one's item must lie above the bottom one's. An edge may repeat.
type wholeNets struct {
	nets   []int
	pins   []pinRef
	items  []item
	itemOf []int
	edges  [][2]int
}

func wholeNetsOf(p *Problem) (wholeNets, error) {
	nets, pins, err := p.pinNets()
	if err != nil {
		return wholeNets{}, err
	}
	w := wholeNets{nets: nets, pins: pins,
		items: make([]item, 0, len(nets)), itemOf: make([]int, len(nets))}
	for k, sp := range pinSpans(len(nets), pins) {
		if sp[0] == sp[1] {
			w.itemOf[k] = -1
			continue
		}
		w.itemOf[k] = len(w.items)
		w.items = append(w.items, item{net: nets[k], lo: sp[0], hi: sp[1]})
	}
	for i := 1; i < len(pins); i++ {
		t, b := w.itemOf[pins[i-1].net], w.itemOf[pins[i].net]
		if !facing(pins[i-1], pins[i]) || t == b || t < 0 || b < 0 {
			continue // through-verticals take the whole column; no track ordering applies
		}
		w.edges = append(w.edges, [2]int{t, b})
	}
	return w, nil
}

// solution lays each item along its track and taps it from every pin
// of its net.
func (w wholeNets) solution(p *Problem, algorithm string, trackOf []int, tracks int) *Solution {
	sol := &Solution{Tracks: tracks, Width: p.Width(), Algorithm: algorithm,
		Horizontals: segments(w.items, trackOf)}
	emitPinVerticals(sol, w.nets, w.pins, func(i int, dst []int) []int {
		if j := w.itemOf[w.pins[i].net]; j >= 0 {
			dst = append(dst, trackOf[j])
		}
		return dst
	})
	sortSolution(sol)
	return sol
}

// Dogleg routes the channel with the dogleg left-edge algorithm:
// multi-pin nets are split into pin-to-pin subnets that may occupy
// different tracks, which breaks most vertical-constraint cycles and
// reduces track counts.
func Dogleg(p *Problem) (*Solution, error) {
	nets, pins, err := p.pinNets()
	if err != nil {
		return nil, err
	}
	// sameColumn reports whether pin i is the bottom pin of a column
	// whose top pin has the same net.
	sameColumn := func(i int) bool {
		return i > 0 && facing(pins[i-1], pins[i]) && pins[i-1].net == pins[i].net
	}
	// Each net's distinct pin columns, ascending, share one array: net
	// k's are cols[start[k]:start[k+1]], and at[i] is the index in cols
	// of pin i's column.
	start := make([]int, len(nets)+1)
	for i, q := range pins {
		if !sameColumn(i) {
			start[q.net+1]++
		}
	}
	for k := 1; k <= len(nets); k++ {
		start[k] += start[k-1]
	}
	cols := make([]int, start[len(nets)])
	at := make([]int, len(pins))
	for i, q := range pins {
		if sameColumn(i) {
			at[i] = at[i-1]
			continue
		}
		at[i] = start[q.net]
		cols[start[q.net]] = q.col()
		start[q.net]++
	}
	// Filling advanced each start[k] to the start of net k+1's columns.
	copy(start[1:], start[:len(nets)])
	start[0] = 0
	// Subnet j of net k runs from cols[start[k]+j] to the next column,
	// and is item start[k]+j-k: a net with m columns has m-1 subnets, so
	// the k nets before it have start[k]-k. Nets with one column are
	// through-verticals and have none.
	items := make([]item, 0, len(cols)-len(nets))
	for k, net := range nets {
		for a := start[k]; a+1 < start[k+1]; a++ {
			items = append(items, item{net: net, lo: cols[a], hi: cols[a+1]})
		}
	}
	// subs returns the subnets with an endpoint at pin i: the one ending
	// there and the one starting there, -1 where the net has none.
	subs := func(i int) (int, int) {
		k, a := pins[i].net, at[i]
		ending, starting := -1, -1
		if a > start[k] {
			ending = a - k - 1
		}
		if a+1 < start[k+1] {
			starting = a - k
		}
		return ending, starting
	}
	// Vertical constraints between subnets sharing a pin column. A
	// repeated edge raises and lowers the same in-degree twice, so it
	// needs no dedupe.
	var edges [][2]int
	for i := 1; i < len(pins); i++ {
		if !facing(pins[i-1], pins[i]) || pins[i-1].net == pins[i].net {
			continue
		}
		te, ts := subs(i - 1)
		be, bs := subs(i)
		for _, t := range [2]int{te, ts} {
			for _, b := range [2]int{be, bs} {
				if t >= 0 && b >= 0 {
					edges = append(edges, [2]int{t, b})
				}
			}
		}
	}
	trackOf, tracks, err := packLEA(items, edges)
	if err != nil {
		return nil, err
	}
	sol := &Solution{Tracks: tracks, Width: p.Width(), Algorithm: "dogleg",
		Horizontals: segments(items, trackOf)}
	emitPinVerticals(sol, nets, pins, func(i int, dst []int) []int {
		ending, starting := subs(i)
		switch {
		case ending >= 0 && starting >= 0:
			lo, hi := trackOf[ending], trackOf[starting]
			return append(dst, min(lo, hi), max(lo, hi))
		case ending >= 0:
			return append(dst, trackOf[ending])
		case starting >= 0:
			return append(dst, trackOf[starting])
		}
		return dst
	})
	sortSolution(sol)
	return sol, nil
}

// emitPinVerticals adds, for every pin, the vertical from its channel
// edge to the tracks its net occupies at that column, tapping each.
// tapsAt appends the tracks of pins[i], ascending, to dst and returns
// it. A pin given no track belongs to a through net, whose two pins are
// the top and bottom of one column: that column gets one full
// edge-to-edge vertical.
func emitPinVerticals(sol *Solution, nets []int, pins []pinRef, tapsAt func(i int, dst []int) []int) {
	if len(pins) == 0 {
		return
	}
	sol.Verticals = make([]Vertical, 0, len(pins))
	// A pin taps at most two tracks (a dogleg's two subnets); every
	// vertical's taps share one array.
	taps := make([]int, 0, 2*len(pins))
	for i, q := range pins {
		n := len(taps)
		taps = tapsAt(i, taps)
		v := Vertical{Net: nets[q.net], Col: q.col()}
		if len(taps) == n {
			if q.top() {
				v.ToTrack = max(sol.Tracks-1, 0)
				v.TouchTop, v.TouchBottom = true, true
				sol.Verticals = append(sol.Verticals, v)
			}
			continue
		}
		// The vertical spans the tapped tracks; TouchTop/TouchBottom
		// extend it to the pin edge.
		v.Taps = taps[n:len(taps):len(taps)]
		v.FromTrack, v.ToTrack = v.Taps[0], v.Taps[len(v.Taps)-1]
		v.TouchTop, v.TouchBottom = q.top(), !q.top()
		sol.Verticals = append(sol.Verticals, v)
	}
}

// sortSolution orders geometry deterministically for stable output.
// Ties (one net's top and bottom verticals in a column) keep the order
// pdqsort leaves them in, which is part of the output: ref_test.go's
// routers sort with sort.Slice, the same pdqsort, so the oracles see a
// change in tie order.
func sortSolution(sol *Solution) {
	slices.SortFunc(sol.Horizontals, func(a, b Segment) int {
		if c := cmp.Compare(a.Track, b.Track); c != 0 {
			return c
		}
		if c := cmp.Compare(a.Lo, b.Lo); c != 0 {
			return c
		}
		return cmp.Compare(a.Net, b.Net)
	})
	slices.SortFunc(sol.Verticals, func(a, b Vertical) int {
		if c := cmp.Compare(a.Col, b.Col); c != 0 {
			return c
		}
		if c := cmp.Compare(a.Net, b.Net); c != 0 {
			return c
		}
		return cmp.Compare(a.FromTrack, b.FromTrack)
	})
}
