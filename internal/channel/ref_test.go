package channel

// The map-based channel routers that the flat ones replaced, kept as
// oracles: oracle_test.go holds LeftEdge, Dogleg, Greedy and NetMerge
// to them, Solution for Solution and error for error. refNetMerge's
// count of unplaced groups on a cyclic channel follows map order, so
// only the class of that refusal is compared.

import (
	"fmt"
	"sort"

	"overcell/internal/robust"
)

// refItem is one track-assignable unit: a whole net for refLeftEdge, a
// pin-to-pin subnet for refDogleg.
type refItem struct {
	id     int
	net    int
	lo, hi int
}

// refPackLEA runs the constrained left-edge algorithm: tracks are filled
// from the top; only items whose vertical-constraint predecessors are
// already placed are eligible; each track takes a maximal set of
// non-overlapping eligible intervals in left-edge order. It returns
// the track of each item id and the number of tracks, or an error when
// the constraint graph is cyclic.
func refPackLEA(items []refItem, edges [][2]int) (map[int]int, int, error) {
	indeg := map[int]int{}
	succ := map[int][]int{}
	exists := map[int]bool{}
	for _, it := range items {
		exists[it.id] = true
		indeg[it.id] += 0
	}
	for _, e := range edges {
		if !exists[e[0]] || !exists[e[1]] {
			return nil, 0, fmt.Errorf("channel: constraint edge over unknown refItem %v", e)
		}
		succ[e[0]] = append(succ[e[0]], e[1])
		indeg[e[1]]++
	}
	remaining := append([]refItem(nil), items...)
	sort.Slice(remaining, func(i, j int) bool {
		if remaining[i].lo != remaining[j].lo {
			return remaining[i].lo < remaining[j].lo
		}
		return remaining[i].id < remaining[j].id
	})
	trackOf := map[int]int{}
	track := 0
	for len(remaining) > 0 {
		lastHi := -2
		lastNet := 0
		var placed []int
		var leftover []refItem
		for _, it := range remaining {
			// Different nets may abut at adjacent columns (their pin
			// verticals land one column apart); subnets of the same net
			// may even share the pin column — they merge into one run
			// tapped by the same vertical.
			tooClose := it.lo <= lastHi
			if it.net == lastNet && lastNet != 0 {
				tooClose = it.lo < lastHi
			}
			if indeg[it.id] > 0 || tooClose {
				leftover = append(leftover, it)
				continue
			}
			trackOf[it.id] = track
			placed = append(placed, it.id)
			lastHi = it.hi
			lastNet = it.net
		}
		if len(placed) == 0 {
			return nil, 0, fmt.Errorf("channel: cyclic vertical constraints (%d items unplaced)", len(remaining))
		}
		for _, id := range placed {
			for _, s := range succ[id] {
				indeg[s]--
			}
		}
		remaining = leftover
		track++
	}
	return trackOf, track, nil
}

// refLeftEdge routes the channel with the constrained left-edge
// algorithm: every net occupies exactly one track; vertical
// constraints (top pin above bottom pin at shared columns) are
// honoured by the packing order. It fails when the vertical constraint
// graph is cyclic — the classic limitation doglegs were invented for.
func refLeftEdge(p *Problem) (*Solution, error) {
	if err := refValidate(p); err != nil {
		return nil, err
	}
	spans := refSpans(p)
	var items []refItem
	var through []int // nets whose pins all sit in one column: routed as a straight vertical
	for net, sp := range spans {
		if sp[0] == sp[1] {
			through = append(through, net)
			continue
		}
		items = append(items, refItem{id: net, net: net, lo: sp[0], hi: sp[1]})
	}
	var edges [][2]int
	for _, e := range refVCGEdges(p) {
		t, b := e[0], e[1]
		if spans[t][0] == spans[t][1] || spans[b][0] == spans[b][1] {
			continue // through-verticals take the whole column; no track ordering applies
		}
		edges = append(edges, e)
	}
	trackOf, tracks, err := refPackLEA(items, edges)
	if err != nil {
		return nil, err
	}
	sol := &Solution{Tracks: tracks, Width: p.Width(), Algorithm: "left-edge"}
	for _, it := range items {
		sol.Horizontals = append(sol.Horizontals, Segment{
			Net: it.net, Track: trackOf[it.id], Lo: it.lo, Hi: it.hi,
		})
	}
	refEmitPinVerticals(sol, p, func(net, col int) []int {
		if tr, ok := trackOf[net]; ok {
			return []int{tr}
		}
		return nil
	}, through)
	refSortSolution(sol)
	return sol, nil
}

// refDogleg routes the channel with the dogleg left-edge algorithm:
// multi-pin nets are split into pin-to-pin subnets that may occupy
// different tracks, which breaks most vertical-constraint cycles and
// reduces track counts.
func refDogleg(p *Problem) (*Solution, error) {
	if err := refValidate(p); err != nil {
		return nil, err
	}
	// Pin columns per net, ascending and unique.
	cols := map[int][]int{}
	note := func(net, c int) {
		if net == 0 {
			return
		}
		lst := cols[net]
		if len(lst) == 0 || lst[len(lst)-1] != c {
			cols[net] = append(lst, c)
		}
	}
	for c := 0; c < p.Width(); c++ {
		note(p.Top[c], c)
		note(p.Bottom[c], c)
	}
	var items []refItem
	var through []int
	subsAt := map[[2]int][]int{} // (net, col) -> subnet refItem ids with an endpoint there
	nextID := 1
	nets := make([]int, 0, len(cols))
	for net := range cols {
		nets = append(nets, net)
	}
	sort.Ints(nets)
	for _, net := range nets {
		cs := cols[net]
		if len(cs) == 1 {
			through = append(through, net)
			continue
		}
		for k := 0; k+1 < len(cs); k++ {
			id := nextID
			nextID++
			items = append(items, refItem{id: id, net: net, lo: cs[k], hi: cs[k+1]})
			subsAt[[2]int{net, cs[k]}] = append(subsAt[[2]int{net, cs[k]}], id)
			subsAt[[2]int{net, cs[k+1]}] = append(subsAt[[2]int{net, cs[k+1]}], id)
		}
	}
	// Vertical constraints between subnets sharing a pin column.
	var edges [][2]int
	seen := map[[2]int]bool{}
	for c := 0; c < p.Width(); c++ {
		t, b := p.Top[c], p.Bottom[c]
		if t == 0 || b == 0 || t == b {
			continue
		}
		for _, ti := range subsAt[[2]int{t, c}] {
			for _, bi := range subsAt[[2]int{b, c}] {
				e := [2]int{ti, bi}
				if !seen[e] {
					seen[e] = true
					edges = append(edges, e)
				}
			}
		}
	}
	trackOf, tracks, err := refPackLEA(items, edges)
	if err != nil {
		return nil, err
	}
	sol := &Solution{Tracks: tracks, Width: p.Width(), Algorithm: "dogleg"}
	for _, it := range items {
		sol.Horizontals = append(sol.Horizontals, Segment{
			Net: it.net, Track: trackOf[it.id], Lo: it.lo, Hi: it.hi,
		})
	}
	refEmitPinVerticals(sol, p, func(net, col int) []int {
		var ts []int
		for _, id := range subsAt[[2]int{net, col}] {
			ts = append(ts, trackOf[id])
		}
		sort.Ints(ts)
		return ts
	}, through)
	refSortSolution(sol)
	return sol, nil
}

// refEmitPinVerticals adds, for every pin, the vertical from its channel
// edge to the track(s) the net occupies at that column (as reported by
// tracksAt), tapping each. Nets listed in through get a single full
// edge-to-edge vertical at their column.
func refEmitPinVerticals(sol *Solution, p *Problem, tracksAt func(net, col int) []int, through []int) {
	isThrough := map[int]bool{}
	for _, net := range through {
		isThrough[net] = true
	}
	doneThrough := map[int]bool{}
	for c := 0; c < p.Width(); c++ {
		for side, net := range []int{p.Top[c], p.Bottom[c]} {
			if net == 0 {
				continue
			}
			if isThrough[net] {
				if !doneThrough[net] {
					doneThrough[net] = true
					hi := sol.Tracks - 1
					if hi < 0 {
						hi = 0
					}
					v := Vertical{Net: net, Col: c, FromTrack: 0, ToTrack: hi,
						TouchTop: true, TouchBottom: true}
					if sol.Tracks == 0 {
						v.FromTrack, v.ToTrack = 0, 0
					}
					sol.Verticals = append(sol.Verticals, v)
				}
				continue
			}
			ts := tracksAt(net, c)
			if len(ts) == 0 {
				continue
			}
			// The vertical spans the tapped tracks; TouchTop/TouchBottom
			// extend it to the pin edge.
			v := Vertical{Net: net, Col: c, Taps: ts,
				FromTrack: ts[0], ToTrack: ts[len(ts)-1]}
			if side == 0 {
				v.TouchTop = true
			} else {
				v.TouchBottom = true
			}
			sol.Verticals = append(sol.Verticals, v)
		}
	}
}

// refTrk is one track with stable identity across insertions. Final track
// indices are resolved only when the scan completes, so widening the
// channel mid-scan never invalidates already-recorded geometry.
type refTrk struct {
	net   int // current occupant, 0 when free
	start int // column where the current occupant claimed the track
}

// refSeg and refVert are geometry records holding track pointers instead
// of indices.
type refSeg struct {
	net    int
	t      *refTrk
	lo, hi int
}

type refVert struct {
	net      int
	col      int
	from, to *refTrk // nil with touchTop/touchBottom meaning the edge
	touchTop bool
	touchBot bool
	taps     []*refTrk
}

// refGreedyRouter scans the channel column by column in the manner of
// Rivest & Fiduccia's greedy channel router: pins are brought onto
// tracks with minimal jogs, nets split onto two tracks when vertical
// conflicts force it, split nets are collapsed as soon as a free
// vertical corridor appears, and the channel widens (a track is
// inserted) whenever a column cannot be completed. The scan may extend
// past the last pin column until every split net has collapsed.
type refGreedyRouter struct {
	p        *Problem
	tracks   []*refTrk
	netTrks  map[int][]*refTrk
	pinsLeft map[int]int
	segs     []refSeg
	verts    []refVert
	// vset holds the vertical spans already placed in the current
	// column, as (net, loPos, hiPos) with -1 and len(tracks) denoting
	// the edges.
	vset []refVSpan
	col  int
}

type refVSpan struct {
	net    int
	lo, hi int
}

// refGreedy routes the channel with the column-scan router. It always
// completes on valid problems, widening the channel as needed.
func refGreedy(p *Problem) (*Solution, error) {
	if err := refValidate(p); err != nil {
		return nil, err
	}
	g := &refGreedyRouter{
		p:        p,
		netTrks:  map[int][]*refTrk{},
		pinsLeft: refPinCounts(p),
	}
	// Start with as many tracks as the density lower bound; the scan
	// inserts more when needed.
	for i, d := 0, p.Density(); i < d; i++ {
		g.tracks = append(g.tracks, &refTrk{})
	}
	width := p.Width()
	for g.col = 0; g.col < width || g.active() > 0; g.col++ {
		if g.col > width+2*len(g.tracks)+4 {
			return nil, fmt.Errorf("channel: greedy scan failed to converge by column %d: %w",
				g.col, robust.ErrInternal)
		}
		g.vset = g.vset[:0]
		if g.col < width {
			if err := g.pins(g.col); err != nil {
				return nil, err
			}
		}
		g.collapse()
		g.terminate()
	}
	return g.emit()
}

// active counts nets still occupying tracks.
func (g *refGreedyRouter) active() int {
	n := 0
	for _, ts := range g.netTrks {
		if len(ts) > 0 {
			n++
		}
	}
	return n
}

func (g *refGreedyRouter) pos(t *refTrk) (int, error) {
	for i, x := range g.tracks {
		if x == t {
			return i, nil
		}
	}
	return -1, ErrTrackLost
}

// claim assigns a free track to a net at the current column.
func (g *refGreedyRouter) claim(t *refTrk, net int) {
	t.net = net
	t.start = g.col
	g.netTrks[net] = append(g.netTrks[net], t)
}

// release ends a net's occupancy of a track at the current column,
// recording the horizontal segment.
func (g *refGreedyRouter) release(t *refTrk) {
	g.segs = append(g.segs, refSeg{net: t.net, t: t, lo: t.start, hi: g.col})
	lst := g.netTrks[t.net]
	for i, x := range lst {
		if x == t {
			g.netTrks[t.net] = append(lst[:i], lst[i+1:]...)
			break
		}
	}
	t.net = 0
}

// insertTrack adds a fresh track at the given position.
func (g *refGreedyRouter) insertTrack(pos int) *refTrk {
	t := &refTrk{}
	g.tracks = append(g.tracks, nil)
	copy(g.tracks[pos+1:], g.tracks[pos:])
	g.tracks[pos] = t
	return t
}

// overlapsVset reports whether the span [lo,hi] (edge-extended
// positions) intersects a different net's vertical in this column.
func (g *refGreedyRouter) overlapsVset(net, lo, hi int) bool {
	for _, v := range g.vset {
		if v.net != net && lo <= v.hi && v.lo <= hi {
			return true
		}
	}
	return false
}

// pins handles the (up to two) pins of the current column.
func (g *refGreedyRouter) pins(c int) error {
	t, b := g.p.Top[c], g.p.Bottom[c]
	switch {
	case t != 0 && t == b:
		return g.sameNetColumn(t)
	case t != 0 && b != 0:
		return g.pinPair(t, b)
	case t != 0:
		return g.singlePin(t, true)
	case b != 0:
		return g.singlePin(b, false)
	}
	return nil
}

// sameNetColumn connects a column whose top and bottom pins belong to
// the same net with one full-height vertical, collapsing every track
// of the net along the way.
func (g *refGreedyRouter) sameNetColumn(net int) error {
	own := g.ownPositions(net)
	if len(own) == 0 {
		// No track yet: if this is the net's only column it needs no
		// track at all; otherwise claim one for the continuation.
		g.pinsLeft[net] -= 2
		if g.pinsLeft[net] > 0 {
			p := g.bestFree(0)
			if p < 0 {
				var err error
				if p, err = g.pos(g.insertTrack(len(g.tracks) / 2)); err != nil {
					return err
				}
			}
			g.claim(g.tracks[p], net)
			g.verts = append(g.verts, refVert{net: net, col: g.col,
				from: g.tracks[p], to: g.tracks[p],
				touchTop: true, touchBot: true, taps: []*refTrk{g.tracks[p]}})
		} else {
			g.verts = append(g.verts, refVert{net: net, col: g.col,
				touchTop: true, touchBot: true})
		}
		g.vset = append(g.vset, refVSpan{net: net, lo: -1, hi: len(g.tracks)})
		return nil
	}
	g.pinsLeft[net] -= 2
	taps := make([]*refTrk, len(own))
	for i, p := range own {
		taps[i] = g.tracks[p]
	}
	g.verts = append(g.verts, refVert{net: net, col: g.col,
		from: taps[0], to: taps[len(taps)-1],
		touchTop: true, touchBot: true, taps: taps})
	g.vset = append(g.vset, refVSpan{net: net, lo: -1, hi: len(g.tracks)})
	// Collapse to the track nearest the next pin.
	keep := g.keepChoice(net, own)
	for _, p := range own {
		if p != keep {
			g.release(g.tracks[p])
		}
	}
	return nil
}

// singlePin connects a lone top or bottom pin.
func (g *refGreedyRouter) singlePin(net int, top bool) error {
	g.pinsLeft[net]--
	own := g.ownPositions(net)
	var spanLo, spanHi int
	var taps []*refTrk
	if len(own) > 0 {
		// Reach the farthest own track so the vertical taps (and the
		// collapse frees) every own track on the pin's side.
		if top {
			deep := own[len(own)-1]
			spanLo, spanHi = -1, deep
		} else {
			deep := own[0]
			spanLo, spanHi = deep, len(g.tracks)
		}
		for _, p := range own {
			if p >= spanLo && p <= spanHi {
				taps = append(taps, g.tracks[p])
			}
		}
	} else {
		p := g.bestFree(boolside(top, 0, len(g.tracks)-1))
		if p < 0 {
			var err error
			if p, err = g.pos(g.insertTrack(boolside(top, 0, len(g.tracks)))); err != nil {
				return err
			}
		}
		g.claim(g.tracks[p], net)
		if top {
			spanLo, spanHi = -1, p
		} else {
			spanLo, spanHi = p, len(g.tracks)
		}
		taps = []*refTrk{g.tracks[p]}
	}
	v := refVert{net: net, col: g.col, taps: taps}
	if top {
		v.touchTop = true
		v.to = taps[len(taps)-1]
		v.from = taps[0]
	} else {
		v.touchBot = true
		v.from = taps[0]
		v.to = taps[len(taps)-1]
	}
	g.verts = append(g.verts, v)
	g.vset = append(g.vset, refVSpan{net: net, lo: spanLo, hi: spanHi})
	// Collapse the tapped tracks onto one.
	if len(taps) > 1 {
		var positions []int
		for _, t := range taps {
			p, err := g.pos(t)
			if err != nil {
				return err
			}
			positions = append(positions, p)
		}
		sort.Ints(positions)
		keep := g.keepChoice(net, positions)
		for _, p := range positions {
			if p != keep {
				g.release(g.tracks[p])
			}
		}
	}
	return nil
}

// pinPair connects a top pin of net t and a bottom pin of net b
// (t != b) at the same column. The top vertical must end strictly
// above the bottom vertical's start.
func (g *refGreedyRouter) pinPair(t, b int) error {
	for attempt := 0; ; attempt++ {
		if attempt > 3 {
			return fmt.Errorf("channel: column %d pin pair (%d,%d) unresolvable: %w",
				g.col, t, b, robust.ErrInternal)
		}
		pt, pb, ok := g.bestPair(t, b)
		if ok {
			g.placePair(t, b, pt, pb)
			return nil
		}
		// Widen: create room that guarantees a feasible pair next round.
		ownT := g.ownPositions(t)
		switch {
		case len(ownT) > 0:
			g.insertTrack(ownT[0] + 1)
		default:
			g.insertTrack(0)
		}
	}
}

// bestPair enumerates candidate track pairs for a top/bottom pin pair
// and picks the feasible one minimising splits, then vertical length.
func (g *refGreedyRouter) bestPair(t, b int) (int, int, bool) {
	candT := g.candidates(t)
	candB := g.candidates(b)
	bestScore := int(^uint(0) >> 1)
	bestT, bestB := -1, -1
	for _, ct := range candT {
		for _, cb := range candB {
			if ct.pos >= cb.pos {
				continue
			}
			score := (ct.split+cb.split)*10000 + ct.pos + (len(g.tracks) - 1 - cb.pos)
			if score < bestScore {
				bestScore, bestT, bestB = score, ct.pos, cb.pos
			}
		}
	}
	return bestT, bestB, bestT >= 0
}

type refCand struct {
	pos   int
	split int // 1 when using this track creates or keeps a split
}

// candidates lists the tracks a pin of the net could land on: its own
// tracks (no new split) and free tracks (split when the net is already
// placed elsewhere).
func (g *refGreedyRouter) candidates(net int) []refCand {
	var out []refCand
	own := g.ownPositions(net)
	for _, p := range own {
		out = append(out, refCand{pos: p})
	}
	splitCost := 0
	if len(own) > 0 {
		splitCost = 1
	}
	for p, t := range g.tracks {
		if t.net == 0 {
			out = append(out, refCand{pos: p, split: splitCost})
		}
	}
	return out
}

// placePair commits the chosen pair: claims free tracks, emits both
// verticals with taps on every own track inside each span, and
// collapses what the verticals connected.
func (g *refGreedyRouter) placePair(t, b, pt, pb int) {
	g.pinsLeft[t]--
	g.pinsLeft[b]--
	place := func(net, deep int, top bool) {
		if g.tracks[deep].net == 0 {
			g.claim(g.tracks[deep], net)
		}
		var spanLo, spanHi int
		if top {
			spanLo, spanHi = -1, deep
		} else {
			spanLo, spanHi = deep, len(g.tracks)
		}
		var taps []*refTrk
		var positions []int
		for _, p := range g.ownPositions(net) {
			if p >= spanLo && p <= spanHi {
				taps = append(taps, g.tracks[p])
				positions = append(positions, p)
			}
		}
		v := refVert{net: net, col: g.col, taps: taps,
			from: taps[0], to: taps[len(taps)-1]}
		if top {
			v.touchTop = true
		} else {
			v.touchBot = true
		}
		g.verts = append(g.verts, v)
		g.vset = append(g.vset, refVSpan{net: net, lo: spanLo, hi: spanHi})
		if len(positions) > 1 {
			keep := g.keepChoice(net, positions)
			for _, p := range positions {
				if p != keep {
					g.release(g.tracks[p])
				}
			}
		}
	}
	place(t, pt, true)
	place(b, pb, false)
}

// collapse joins split nets wherever a free vertical corridor exists
// in the current column.
func (g *refGreedyRouter) collapse() {
	nets := make([]int, 0, len(g.netTrks))
	for net, ts := range g.netTrks {
		if len(ts) > 1 {
			nets = append(nets, net)
		}
	}
	sort.Ints(nets)
	for _, net := range nets {
		for {
			own := g.ownPositions(net)
			if len(own) < 2 {
				break
			}
			joined := false
			for i := 0; i+1 < len(own); i++ {
				lo, hi := own[i], own[i+1]
				if g.overlapsVset(net, lo, hi) {
					continue
				}
				g.verts = append(g.verts, refVert{net: net, col: g.col,
					from: g.tracks[lo], to: g.tracks[hi],
					taps: []*refTrk{g.tracks[lo], g.tracks[hi]}})
				g.vset = append(g.vset, refVSpan{net: net, lo: lo, hi: hi})
				keep := g.keepChoice(net, []int{lo, hi})
				if keep == lo {
					g.release(g.tracks[hi])
				} else {
					g.release(g.tracks[lo])
				}
				joined = true
				break
			}
			if !joined {
				break
			}
		}
	}
}

// terminate releases the tracks of nets whose pins are all connected
// and which occupy a single track.
func (g *refGreedyRouter) terminate() {
	nets := make([]int, 0, len(g.netTrks))
	for net := range g.netTrks {
		nets = append(nets, net)
	}
	sort.Ints(nets)
	for _, net := range nets {
		if g.pinsLeft[net] == 0 && len(g.netTrks[net]) == 1 {
			g.release(g.netTrks[net][0])
		}
	}
}

// ownPositions returns the sorted track positions a net occupies.
func (g *refGreedyRouter) ownPositions(net int) []int {
	var out []int
	for p, t := range g.tracks {
		if t.net == net {
			out = append(out, p)
		}
	}
	return out
}

// bestFree returns the free track position closest to the preferred
// position, or -1 when none is free.
func (g *refGreedyRouter) bestFree(prefer int) int {
	best, bestD := -1, 0
	for p, t := range g.tracks {
		if t.net != 0 {
			continue
		}
		d := p - prefer
		if d < 0 {
			d = -d
		}
		if best < 0 || d < bestD {
			best, bestD = p, d
		}
	}
	return best
}

// keepChoice picks which of a net's tracks to keep after a collapse:
// the one nearest the side of the net's next pin (topmost for a top
// pin, bottommost for a bottom pin, topmost when no pins remain).
func (g *refGreedyRouter) keepChoice(net int, positions []int) int {
	top := true
	for c := g.col + 1; c < g.p.Width(); c++ {
		if g.p.Top[c] == net {
			top = true
			break
		}
		if g.p.Bottom[c] == net {
			top = false
			break
		}
	}
	if top {
		return positions[0]
	}
	return positions[len(positions)-1]
}

// emit resolves track pointers to final indices and builds the
// Solution.
func (g *refGreedyRouter) emit() (*Solution, error) {
	idx := map[*refTrk]int{}
	for i, t := range g.tracks {
		idx[t] = i
	}
	sol := &Solution{Tracks: len(g.tracks), Width: g.col, Algorithm: "greedy"}
	if sol.Width < g.p.Width() {
		sol.Width = g.p.Width()
	}
	for _, s := range g.segs {
		sol.Horizontals = append(sol.Horizontals, Segment{
			Net: s.net, Track: idx[s.t], Lo: s.lo, Hi: s.hi,
		})
	}
	for _, v := range g.verts {
		out := Vertical{Net: v.net, Col: v.col, TouchTop: v.touchTop, TouchBottom: v.touchBot}
		if v.from != nil {
			out.FromTrack, out.ToTrack = idx[v.from], idx[v.to]
			if out.FromTrack > out.ToTrack {
				out.FromTrack, out.ToTrack = out.ToTrack, out.FromTrack
			}
		} else if len(g.tracks) > 0 {
			out.FromTrack, out.ToTrack = 0, len(g.tracks)-1
		}
		for _, t := range v.taps {
			out.Taps = append(out.Taps, idx[t])
		}
		sort.Ints(out.Taps)
		sol.Verticals = append(sol.Verticals, out)
	}
	refSortSolution(sol)
	return sol, nil
}

// refValidate is the map-based Problem.Validate. With more than one
// single-pin net, the one it names follows map order.
func refValidate(p *Problem) error {
	if len(p.Top) != len(p.Bottom) {
		return fmt.Errorf("channel: top has %d columns, bottom %d", len(p.Top), len(p.Bottom))
	}
	if len(p.Top) == 0 {
		return fmt.Errorf("channel: empty problem")
	}
	count := map[int]int{}
	for _, n := range p.Top {
		if n < 0 {
			return fmt.Errorf("channel: negative net number %d", n)
		}
		if n > 0 {
			count[n]++
		}
	}
	for _, n := range p.Bottom {
		if n < 0 {
			return fmt.Errorf("channel: negative net number %d", n)
		}
		if n > 0 {
			count[n]++
		}
	}
	for n, c := range count {
		if c < 2 {
			return fmt.Errorf("channel: net %d has a single pin", n)
		}
	}
	return nil
}

// refPinCounts returns the set of net numbers with their pin counts.
func refPinCounts(p *Problem) map[int]int {
	count := map[int]int{}
	for _, n := range p.Top {
		if n > 0 {
			count[n]++
		}
	}
	for _, n := range p.Bottom {
		if n > 0 {
			count[n]++
		}
	}
	return count
}

// refSortSolution is the sort.Slice form of sortSolution. The
// reference routers call it so that the oracles catch any change in
// the order sortSolution leaves tied verticals in.
func refSortSolution(sol *Solution) {
	sort.Slice(sol.Horizontals, func(i, j int) bool {
		a, b := sol.Horizontals[i], sol.Horizontals[j]
		if a.Track != b.Track {
			return a.Track < b.Track
		}
		if a.Lo != b.Lo {
			return a.Lo < b.Lo
		}
		return a.Net < b.Net
	})
	sort.Slice(sol.Verticals, func(i, j int) bool {
		a, b := sol.Verticals[i], sol.Verticals[j]
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Net != b.Net {
			return a.Net < b.Net
		}
		return a.FromTrack < b.FromTrack
	})
}

// refNetMerge routes the channel with the net-merging method of Yoshimura
// and Kuh ("Efficient algorithms for channel routing", IEEE TCAD 1982)
// — the algorithm the paper's three-layer reference [1] builds on.
// Nets are processed in left-edge order; a net whose span begins after
// another group's span has ended may merge into that group (sharing
// its track) provided the merge keeps the vertical constraint graph
// acyclic; the merge chosen minimises the longest resulting constraint
// chain, which bounds the track count. Tracks are the final merged
// groups, ordered by a topological sort of the merged constraint
// graph. Like LeftEdge, it refuses cyclic vertical constraints.
func refNetMerge(p *Problem) (*Solution, error) {
	netNums, pins, err := p.pinNets()
	if err != nil {
		return nil, err
	}
	spans := refSpans(p)
	type net struct {
		id     int
		lo, hi int
	}
	var nets []net
	var through []int
	for id, sp := range spans {
		if sp[0] == sp[1] {
			through = append(through, id)
			continue
		}
		nets = append(nets, net{id, sp[0], sp[1]})
	}
	sort.Slice(nets, func(i, j int) bool {
		if nets[i].lo != nets[j].lo {
			return nets[i].lo < nets[j].lo
		}
		return nets[i].id < nets[j].id
	})

	// Union-find over nets -> groups.
	groupOf := map[int]int{} // net id -> group id (root net id)
	var find func(int) int
	find = func(x int) int {
		for groupOf[x] != x {
			groupOf[x] = groupOf[groupOf[x]]
			x = groupOf[x]
		}
		return x
	}
	groupHi := map[int]int{} // group -> rightmost column
	for _, n := range nets {
		groupOf[n.id] = n.id
		groupHi[n.id] = n.hi
	}
	isThrough := map[int]bool{}
	for _, id := range through {
		isThrough[id] = true
	}

	// Constraint edges between groups (through nets impose none).
	succ := map[int]map[int]bool{}
	addEdge := func(a, b int) {
		if succ[a] == nil {
			succ[a] = map[int]bool{}
		}
		succ[a][b] = true
	}
	for _, e := range refVCGEdges(p) {
		if isThrough[e[0]] || isThrough[e[1]] {
			continue
		}
		addEdge(e[0], e[1])
	}

	// reaches reports whether a directed path exists from group a to
	// group b in the current merged constraint graph.
	reaches := func(a, b int) bool {
		seen := map[int]bool{a: true}
		stack := []int{a}
		for len(stack) > 0 {
			cur := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, s := range refSortedKeys(succ[cur]) {
				s = find(s)
				if s == b {
					return true
				}
				if !seen[s] {
					seen[s] = true
					stack = append(stack, s)
				}
			}
		}
		return false
	}
	// above and below are the longest constraint chains ending at and
	// starting from a group; merging g and r yields a node whose chain
	// is max(above(g)+below(r), above(r)+below(g)) — the quantity the
	// merge heuristic minimises, since it lower-bounds the tracks.
	above := func(g int) int { return refChain(g, map[int]int{}, false, succ, find) }
	below := func(g int) int { return refChain(g, map[int]int{}, true, succ, find) }

	mergeInto := func(g, r int) {
		// Merge group r into group g: union the nodes and redirect
		// edges lazily through find().
		gr, rr := find(g), find(r)
		groupOf[rr] = gr
		if groupHi[rr] > groupHi[gr] {
			groupHi[gr] = groupHi[rr]
		}
		// Fold successor sets so reachability walks stay linear.
		if succ[rr] != nil {
			if succ[gr] == nil {
				succ[gr] = map[int]bool{}
			}
			for _, s := range refSortedKeys(succ[rr]) {
				succ[gr][s] = true
			}
			delete(succ, rr)
		}
		// Predecessor edges keep pointing at rr; find() resolves them.
	}

	for _, n := range nets {
		r := find(n.id)
		// Candidate groups whose span ended strictly before this net
		// starts.
		best, bestScore := -1, 0
		for _, m := range nets {
			g := find(m.id)
			if g == r || groupHi[g] >= n.lo {
				continue
			}
			if reaches(g, r) || reaches(r, g) {
				continue
			}
			score := above(g) + below(r)
			if alt := above(r) + below(g); alt > score {
				score = alt
			}
			if best < 0 || score < bestScore || (score == bestScore && g < best) {
				best, bestScore = g, score
			}
		}
		if best >= 0 {
			mergeInto(best, r)
		}
	}

	// Topological order of the merged groups = track order (top to
	// bottom: constraint sources first).
	groups := map[int]bool{}
	for _, n := range nets {
		groups[find(n.id)] = true
	}
	indeg := map[int]int{}
	out := map[int]map[int]bool{}
	for g := range groups {
		indeg[g] += 0
	}
	for _, a := range refSortedKeys(succ) {
		ar := find(a)
		for _, s := range refSortedKeys(succ[a]) {
			sr := find(s)
			if ar == sr {
				continue
			}
			if out[ar] == nil {
				out[ar] = map[int]bool{}
			}
			if !out[ar][sr] {
				out[ar][sr] = true
				indeg[sr]++
			}
		}
	}
	var order []int
	var ready []int
	for g := range groups {
		if indeg[g] == 0 {
			ready = append(ready, g)
		}
	}
	sort.Ints(ready)
	for len(ready) > 0 {
		g := ready[0]
		ready = ready[1:]
		order = append(order, g)
		var next []int
		for _, s := range refSortedKeys(out[g]) {
			indeg[s]--
			if indeg[s] == 0 {
				next = append(next, s)
			}
		}
		ready = append(ready, next...)
	}
	if len(order) != len(groups) {
		return nil, fmt.Errorf("channel: cyclic vertical constraints (net merging left %d groups unplaced)",
			len(groups)-len(order))
	}
	trackOfGroup := map[int]int{}
	for i, g := range order {
		trackOfGroup[g] = i
	}

	sol := &Solution{Tracks: len(order), Width: p.Width(), Algorithm: "net-merge"}
	trackOfNet := map[int]int{}
	for _, n := range nets {
		tr := trackOfGroup[find(n.id)]
		trackOfNet[n.id] = tr
		sol.Horizontals = append(sol.Horizontals, Segment{Net: n.id, Track: tr, Lo: n.lo, Hi: n.hi})
	}
	emitPinVerticals(sol, netNums, pins, func(i int, dst []int) []int {
		if tr, ok := trackOfNet[netNums[pins[i].net]]; ok {
			dst = append(dst, tr)
		}
		return dst
	})
	sortSolution(sol)
	return sol, nil
}

// refChain computes the longest directed chain starting (fwd) or ending
// (!fwd) at group g in the merged constraint graph. For the backward
// direction the graph is walked via an inverted view built on demand;
// graphs here are small (channel nets), so clarity wins over caching.
func refChain(g int, memo map[int]int, fwd bool, succ map[int]map[int]bool, find func(int) int) int {
	g = find(g)
	if v, ok := memo[g]; ok {
		return v
	}
	memo[g] = 0 // cycle guard; real cycles are rejected later
	best := 0
	if fwd {
		for s := range succ[g] {
			sr := find(s)
			if sr == g {
				continue
			}
			if d := refChain(sr, memo, fwd, succ, find) + 1; d > best {
				best = d
			}
		}
	} else {
		for a, ss := range succ {
			ar := find(a)
			if ar == g {
				continue
			}
			hit := false
			for s := range ss {
				if find(s) == g {
					hit = true
					break
				}
			}
			if hit {
				if d := refChain(ar, memo, fwd, succ, find) + 1; d > best {
					best = d
				}
			}
		}
	}
	memo[g] = best
	return best
}

// refSortedKeys returns m's keys in increasing order. The merged
// constraint graph is stored as map-of-sets; every walk over it ranges
// through this helper so traversal order — and therefore any tie-break
// the walk feeds — is deterministic by construction rather than by
// argument about commutativity.
func refSortedKeys[V any](m map[int]V) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// refSpans returns the leftmost and rightmost pin column of each net.
func refSpans(p *Problem) map[int][2]int {
	s := map[int][2]int{}
	note := func(n, c int) {
		if n == 0 {
			return
		}
		sp, ok := s[n]
		if !ok {
			s[n] = [2]int{c, c}
			return
		}
		if c < sp[0] {
			sp[0] = c
		}
		if c > sp[1] {
			sp[1] = c
		}
		s[n] = sp
	}
	for c := range p.Top {
		note(p.Top[c], c)
		note(p.Bottom[c], c)
	}
	return s
}

// refVCGEdges returns the vertical constraint edges (top net, bottom net)
// induced by columns carrying pins of two different nets.
func refVCGEdges(p *Problem) [][2]int {
	var edges [][2]int
	seen := map[[2]int]bool{}
	for c := 0; c < p.Width(); c++ {
		t, b := p.Top[c], p.Bottom[c]
		if t != 0 && b != 0 && t != b {
			e := [2]int{t, b}
			if !seen[e] {
				seen[e] = true
				edges = append(edges, e)
			}
		}
	}
	return edges
}
