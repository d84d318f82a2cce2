package channel

import (
	"fmt"
	"slices"
	"sort"

	"overcell/internal/robust"
)

// ErrTrackLost reports a track pointer that is no longer in the
// router's track list — an internal bookkeeping invariant violation
// (matching robust.ErrInternal), never a property of the input. It
// used to be a panic; now it propagates as an error through
// flow.routeChannel so one corrupt channel cannot take down a whole
// routing service.
var ErrTrackLost = fmt.Errorf("channel: track not in list: %w", robust.ErrInternal)

// trk is one track with stable identity across insertions. Final track
// indices are resolved only when the scan completes, so widening the
// channel mid-scan never invalidates already-recorded geometry.
type trk struct {
	net   int // current occupant, 0 when free
	start int // column where the current occupant claimed the track
	idx   int // final index, set by emit
}

// gSeg and gVert are geometry records holding track pointers instead
// of indices.
type gSeg struct {
	net    int
	t      *trk
	lo, hi int
}

type gVert struct {
	net      int
	col      int
	from, to *trk // nil with touchTop/touchBottom meaning the edge
	touchTop bool
	touchBot bool
	taps     []*trk
}

// greedyRouter scans the channel column by column in the manner of
// Rivest & Fiduccia's greedy channel router: pins are brought onto
// tracks with minimal jogs, nets split onto two tracks when vertical
// conflicts force it, split nets are collapsed as soon as a free
// vertical corridor appears, and the channel widens (a track is
// inserted) whenever a column cannot be completed. The scan may extend
// past the last pin column until every split net has collapsed.
//
// Nets are named by their 1-based position in nets (see pinNets), so 0
// still means a free track and the dense order is the numeric one.
type greedyRouter struct {
	p    *Problem
	nets []int
	pins []pinRef
	// next indexes the first pin past the current column.
	next   int
	tracks []*trk
	// held counts each net's tracks; live lists the nets holding one,
	// ascending.
	held     []int
	live     []int
	pinsLeft []int
	segs     []gSeg
	verts    []gVert
	// vset holds the vertical spans already placed in the current
	// column, as (net, loPos, hiPos) with -1 and len(tracks) denoting
	// the edges.
	vset []gvSpan
	col  int
}

type gvSpan struct {
	net    int
	lo, hi int
}

// Greedy routes the channel with the column-scan router. It always
// completes on valid problems, widening the channel as needed.
func Greedy(p *Problem) (*Solution, error) {
	nets, pins, err := p.pinNets()
	if err != nil {
		return nil, err
	}
	g := &greedyRouter{
		p:        p,
		nets:     nets,
		pins:     pins,
		held:     make([]int, len(nets)+1),
		pinsLeft: make([]int, len(nets)+1),
	}
	for _, q := range pins {
		g.pinsLeft[q.net+1]++
	}
	// Start with as many tracks as the density lower bound; the scan
	// inserts more when needed.
	for i, d := 0, density(p.Width(), pinSpans(len(nets), pins)); i < d; i++ {
		g.tracks = append(g.tracks, &trk{})
	}
	width := p.Width()
	for g.col = 0; g.col < width || len(g.live) > 0; g.col++ {
		if g.col > width+2*len(g.tracks)+4 {
			return nil, fmt.Errorf("channel: greedy scan failed to converge by column %d: %w",
				g.col, robust.ErrInternal)
		}
		g.vset = g.vset[:0]
		t, b := 0, 0
		for ; g.next < len(pins) && pins[g.next].col() == g.col; g.next++ {
			if pins[g.next].top() {
				t = pins[g.next].net + 1
			} else {
				b = pins[g.next].net + 1
			}
		}
		if err := g.pinColumn(t, b); err != nil {
			return nil, err
		}
		g.collapse()
		g.terminate()
	}
	return g.emit()
}

func (g *greedyRouter) pos(t *trk) (int, error) {
	for i, x := range g.tracks {
		if x == t {
			return i, nil
		}
	}
	return -1, ErrTrackLost
}

// claim assigns a free track to a net at the current column.
func (g *greedyRouter) claim(t *trk, net int) {
	t.net = net
	t.start = g.col
	if g.held[net] == 0 {
		i, _ := slices.BinarySearch(g.live, net)
		g.live = slices.Insert(g.live, i, net)
	}
	g.held[net]++
}

// release ends a net's occupancy of a track at the current column,
// recording the horizontal segment.
func (g *greedyRouter) release(t *trk) {
	g.segs = append(g.segs, gSeg{net: t.net, t: t, lo: t.start, hi: g.col})
	if g.held[t.net]--; g.held[t.net] == 0 {
		i, _ := slices.BinarySearch(g.live, t.net)
		g.live = slices.Delete(g.live, i, i+1)
	}
	t.net = 0
}

// insertTrack adds a fresh track at the given position.
func (g *greedyRouter) insertTrack(pos int) *trk {
	t := &trk{}
	g.tracks = append(g.tracks, nil)
	copy(g.tracks[pos+1:], g.tracks[pos:])
	g.tracks[pos] = t
	return t
}

// overlapsVset reports whether the span [lo,hi] (edge-extended
// positions) intersects a different net's vertical in this column.
func (g *greedyRouter) overlapsVset(net, lo, hi int) bool {
	for _, v := range g.vset {
		if v.net != net && lo <= v.hi && v.lo <= hi {
			return true
		}
	}
	return false
}

// pinColumn handles the pins of the current column: a top pin of net
// t and a bottom pin of net b, 0 where there is none.
func (g *greedyRouter) pinColumn(t, b int) error {
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
func (g *greedyRouter) sameNetColumn(net int) error {
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
			g.verts = append(g.verts, gVert{net: net, col: g.col,
				from: g.tracks[p], to: g.tracks[p],
				touchTop: true, touchBot: true, taps: []*trk{g.tracks[p]}})
		} else {
			g.verts = append(g.verts, gVert{net: net, col: g.col,
				touchTop: true, touchBot: true})
		}
		g.vset = append(g.vset, gvSpan{net: net, lo: -1, hi: len(g.tracks)})
		return nil
	}
	g.pinsLeft[net] -= 2
	taps := make([]*trk, len(own))
	for i, p := range own {
		taps[i] = g.tracks[p]
	}
	g.verts = append(g.verts, gVert{net: net, col: g.col,
		from: taps[0], to: taps[len(taps)-1],
		touchTop: true, touchBot: true, taps: taps})
	g.vset = append(g.vset, gvSpan{net: net, lo: -1, hi: len(g.tracks)})
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
func (g *greedyRouter) singlePin(net int, top bool) error {
	g.pinsLeft[net]--
	own := g.ownPositions(net)
	var spanLo, spanHi int
	var taps []*trk
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
		taps = []*trk{g.tracks[p]}
	}
	v := gVert{net: net, col: g.col, taps: taps}
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
	g.vset = append(g.vset, gvSpan{net: net, lo: spanLo, hi: spanHi})
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
func (g *greedyRouter) pinPair(t, b int) error {
	for attempt := 0; ; attempt++ {
		if attempt > 3 {
			return fmt.Errorf("channel: column %d pin pair (%d,%d) unresolvable: %w",
				g.col, g.nets[t-1], g.nets[b-1], robust.ErrInternal)
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
func (g *greedyRouter) bestPair(t, b int) (int, int, bool) {
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

type cand struct {
	pos   int
	split int // 1 when using this track creates or keeps a split
}

// candidates lists the tracks a pin of the net could land on: its own
// tracks (no new split) and free tracks (split when the net is already
// placed elsewhere).
func (g *greedyRouter) candidates(net int) []cand {
	var out []cand
	own := g.ownPositions(net)
	for _, p := range own {
		out = append(out, cand{pos: p})
	}
	splitCost := 0
	if len(own) > 0 {
		splitCost = 1
	}
	for p, t := range g.tracks {
		if t.net == 0 {
			out = append(out, cand{pos: p, split: splitCost})
		}
	}
	return out
}

// placePair commits the chosen pair: claims free tracks, emits both
// verticals with taps on every own track inside each span, and
// collapses what the verticals connected.
func (g *greedyRouter) placePair(t, b, pt, pb int) {
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
		var taps []*trk
		var positions []int
		for _, p := range g.ownPositions(net) {
			if p >= spanLo && p <= spanHi {
				taps = append(taps, g.tracks[p])
				positions = append(positions, p)
			}
		}
		v := gVert{net: net, col: g.col, taps: taps,
			from: taps[0], to: taps[len(taps)-1]}
		if top {
			v.touchTop = true
		} else {
			v.touchBot = true
		}
		g.verts = append(g.verts, v)
		g.vset = append(g.vset, gvSpan{net: net, lo: spanLo, hi: spanHi})
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
func (g *greedyRouter) collapse() {
	// A collapse never frees a net's last track, so live holds still.
	for _, net := range g.live {
		if g.held[net] < 2 {
			continue
		}
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
				g.verts = append(g.verts, gVert{net: net, col: g.col,
					from: g.tracks[lo], to: g.tracks[hi],
					taps: []*trk{g.tracks[lo], g.tracks[hi]}})
				g.vset = append(g.vset, gvSpan{net: net, lo: lo, hi: hi})
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
func (g *greedyRouter) terminate() {
	for i := 0; i < len(g.live); {
		net := g.live[i]
		if g.pinsLeft[net] != 0 || g.held[net] != 1 {
			i++
			continue
		}
		for _, t := range g.tracks {
			if t.net == net {
				g.release(t) // drops net from live[i]
				break
			}
		}
	}
}

// ownPositions returns the sorted track positions a net occupies.
func (g *greedyRouter) ownPositions(net int) []int {
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
func (g *greedyRouter) bestFree(prefer int) int {
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
func (g *greedyRouter) keepChoice(net int, positions []int) int {
	top := true
	for _, q := range g.pins[g.next:] {
		if q.net+1 == net {
			top = q.top()
			break
		}
	}
	if top {
		return positions[0]
	}
	return positions[len(positions)-1]
}

func boolside(top bool, a, b int) int {
	if top {
		return a
	}
	return b
}

// emit resolves track pointers to final indices and builds the
// Solution.
func (g *greedyRouter) emit() (*Solution, error) {
	for i, t := range g.tracks {
		t.idx = i
	}
	sol := &Solution{Tracks: len(g.tracks), Width: max(g.col, g.p.Width()), Algorithm: "greedy"}
	if len(g.segs) > 0 {
		sol.Horizontals = make([]Segment, len(g.segs))
	}
	for i, s := range g.segs {
		sol.Horizontals[i] = Segment{Net: g.nets[s.net-1], Track: s.t.idx, Lo: s.lo, Hi: s.hi}
	}
	if len(g.verts) > 0 {
		sol.Verticals = make([]Vertical, len(g.verts))
	}
	ntaps := 0
	for _, v := range g.verts {
		ntaps += len(v.taps)
	}
	// Every vertical's taps share one array; a vertical with none keeps
	// nil Taps.
	taps := make([]int, 0, ntaps)
	for i, v := range g.verts {
		out := Vertical{Net: g.nets[v.net-1], Col: v.col, TouchTop: v.touchTop, TouchBottom: v.touchBot}
		if v.from != nil {
			out.FromTrack, out.ToTrack = v.from.idx, v.to.idx
			if out.FromTrack > out.ToTrack {
				out.FromTrack, out.ToTrack = out.ToTrack, out.FromTrack
			}
		} else if len(g.tracks) > 0 {
			out.FromTrack, out.ToTrack = 0, len(g.tracks)-1
		}
		if len(v.taps) > 0 {
			n := len(taps)
			for _, t := range v.taps {
				taps = append(taps, t.idx)
			}
			out.Taps = taps[n:len(taps):len(taps)]
			sort.Ints(out.Taps)
		}
		sol.Verticals[i] = out
	}
	sortSolution(sol)
	return sol, nil
}
