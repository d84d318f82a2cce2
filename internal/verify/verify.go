// Package verify checks routed results against the design rules and
// electrical requirements of the two-layer HV over-cell model. The
// flows run these checks on every result, so a routing bug surfaces as
// a loud error instead of silently corrupt geometry; the test suites
// additionally keep their own independent oracles.
//
// The checks are flat. A segment is an interval of grid points on its
// (layer, track), and a via or terminal stack is a one-point interval
// on each layer, so Conflicts and Connectivity sort and sweep intervals
// instead of visiting grid points: O(k) storage per call, for k
// segments, vias and terminals, and near-linear time, since intervals
// are bucketed by track and only each track's own intervals are sorted
// by first point. verify builds its own view of the geometry from the
// result and never consults the router's grid.
package verify

import (
	"cmp"
	"fmt"
	"slices"

	"overcell/internal/core"
	"overcell/internal/geom"
	"overcell/internal/netlist"
	"overcell/internal/tig"
)

// The two routing layers: horizontal wires run on layerH, vertical
// wires on layerV.
const (
	layerH = iota
	layerV
)

func layerOf(s core.Segment) int {
	if s.Horizontal {
		return layerH
	}
	return layerV
}

// point returns the grid point at position k along a track of layer.
func point(layer, track, k int) tig.Point {
	if layer == layerH {
		return tig.Point{Col: k, Row: track}
	}
	return tig.Point{Col: track, Row: k}
}

// ival is the grid points lo..hi along one track, tagged with the id
// of the segment or stack it belongs to.
type ival struct {
	track, lo, hi, id int
}

// byTrack orders intervals by track, then by first point.
func byTrack(a, b ival) int {
	if a.track != b.track {
		return cmp.Compare(a.track, b.track)
	}
	return cmp.Compare(a.lo, b.lo)
}

// layers holds intervals per layer, indexed by layerH and layerV.
type layers [2][]ival

// newLayers returns empty layers backed by one allocation, with room
// for nh horizontal and nv vertical intervals.
func newLayers(nh, nv int) layers {
	buf := make([]ival, nh+nv)
	return layers{buf[:0:nh], buf[nh : nh : nh+nv]}
}

// segment adds s's interval, if it holds any point.
func (ls *layers) segment(s core.Segment, id int) {
	if s.Lo <= s.Hi {
		l := layerOf(s)
		ls[l] = append(ls[l], ival{s.Track, s.Lo, s.Hi, id})
	}
}

// stack adds a via or terminal stack at p: one point on each layer.
func (ls *layers) stack(p tig.Point, id int) {
	ls[layerH] = append(ls[layerH], ival{p.Row, p.Col, p.Col, id})
	ls[layerV] = append(ls[layerV], ival{p.Col, p.Row, p.Row, id})
}

// eachTrack sorts each layer byTrack and calls fn with each run of
// intervals on one track. buckets is sortByTrack's scratch, returned
// for reuse.
func (ls *layers) eachTrack(buckets []int, fn func(layer int, track []ival)) []int {
	for layer, ivs := range ls {
		buckets = sortByTrack(ivs, buckets)
		for i := 0; i < len(ivs); {
			j := i + 1
			for j < len(ivs) && ivs[j].track == ivs[i].track {
				j++
			}
			fn(layer, ivs[i:j])
			i = j
		}
	}
	return buckets
}

// sortByTrack orders ivs byTrack in near-linear time and returns its
// scratch for reuse. A counting pass sizes one bucket per track, a
// prefix sum places the buckets, the intervals are swapped into their
// buckets in place, and each bucket is sorted by first point. When the
// tracks spread over more than twice as many values as there are
// intervals (a whole result's do not, but one small net's often do), a
// bucket takes in a power-of-two run of tracks instead, so the scratch
// stays O(len(ivs)) on any input; such a bucket is sorted byTrack.
//
//oc:hotpath
func sortByTrack(ivs []ival, buckets []int) []int {
	if len(ivs) < 2 {
		return buckets
	}
	first := ivs[0].track
	last := first
	for _, iv := range ivs[1:] {
		first, last = min(first, iv.track), max(last, iv.track)
	}
	// Unsigned arithmetic measures the spread even where last-first
	// overflows an int.
	shift := 0
	for (uint(last)-uint(first))>>shift >= uint(2*len(ivs)) {
		shift++
	}
	bucket := func(iv ival) int { return int((uint(iv.track) - uint(first)) >> shift) }
	nb := bucket(ival{track: last}) + 1
	if cap(buckets) < 2*nb {
		buckets = make([]int, 2*nb)
	}
	// next[b] is the next slot to fill in bucket b, end[b] its end.
	next, end := buckets[:nb], buckets[nb:2*nb]
	clear(end)
	for _, iv := range ivs {
		end[bucket(iv)]++
	}
	at := 0
	for b := range end {
		next[b] = at
		at += end[b]
		end[b] = at
	}
	for b := range next {
		for next[b] < end[b] {
			iv := ivs[next[b]]
			d := bucket(iv)
			if d == b {
				next[b]++
				continue
			}
			// iv belongs to bucket d: swap it into d's next slot and
			// look again at what came back.
			ivs[next[b]], ivs[next[d]] = ivs[next[d]], iv
			next[d]++
		}
	}
	at = 0
	for _, e := range end {
		slices.SortFunc(ivs[at:e], byTrack)
		at = e
	}
	return buckets
}

// kind names what a piece of metal is in a conflict error.
type kind uint8

const (
	wire kind = iota
	via
	terminal
)

func (k kind) String() string {
	switch k {
	case via:
		return "via"
	case terminal:
		return "terminal"
	}
	return "wire"
}

// metal is the owner of a segment or stack. Conflicts numbers them in
// the order the routes list them: route by route, segments, then
// vias, then terminals; an interval's id indexes this sequence.
type metal struct {
	net   netlist.NetID
	route int // index into Result.Routes
	kind  kind
}

// conflict is a grid point that metal id shares with a foreign net's
// earlier metal; prev is the route that claimed the point last.
type conflict struct {
	id, layer, track, pos, prev int
}

// before orders conflicts as a point-by-point walk of the metal meets
// them: by id, then by layer (a stack claims its horizontal point
// first), then by position along the track.
func (c conflict) before(o conflict) bool {
	if c.id != o.id {
		return c.id < o.id
	}
	if c.layer != o.layer {
		return c.layer < o.layer
	}
	return c.pos < o.pos
}

// Conflicts checks the inter-net design rules over a level B result:
// no two nets may occupy the same (grid point, layer); vias and
// terminal stacks occupy both layers at their point. Failed nets'
// partial geometry participates: it is committed metal. Nets are
// told apart by Net.ID, so two routes of one net may overlap.
//
// Each track's intervals are swept once in order of first point; only
// a track that holds two nets' metal on one point is replayed point by
// point, to name the first conflict in the routes' order.
func Conflicts(res *core.Result) error {
	var nh, nv, n int
	for _, nr := range res.Routes {
		for _, s := range nr.Segments {
			if s.Horizontal {
				nh++
			} else {
				nv++
			}
		}
		stacks := len(nr.Vias) + len(nr.Terminals)
		nh, nv, n = nh+stacks, nv+stacks, n+len(nr.Segments)+stacks
	}
	ls := newLayers(nh, nv)
	owners := make([]metal, 0, n)
	for ri, nr := range res.Routes {
		id := nr.Net.ID
		for _, s := range nr.Segments {
			ls.segment(s, len(owners))
			owners = append(owners, metal{id, ri, wire})
		}
		for _, p := range nr.Vias {
			ls.stack(p, len(owners))
			owners = append(owners, metal{id, ri, via})
		}
		for _, p := range nr.Terminals {
			ls.stack(p, len(owners))
			owners = append(owners, metal{id, ri, terminal})
		}
	}
	var first conflict
	found := false
	ls.eachTrack(nil, func(layer int, track []ival) {
		if !sharesForeign(track, owners) {
			return
		}
		if c := firstConflict(layer, track, owners); !found || c.before(first) {
			first, found = c, true
		}
	})
	if !found {
		return nil
	}
	cur := owners[first.id]
	return fmt.Errorf("verify: %s conflict at %v between %q and %q", cur.kind,
		point(first.layer, first.track, first.pos), res.Routes[first.prev].Net.Name, res.Routes[cur.route].Net.Name)
}

// sharesForeign reports whether two nets' intervals on one track,
// sorted by first point, share a grid point. It follows the interval
// reaching furthest and the furthest reach of any other net: an
// interval meets a foreign one iff it starts at or before that net's
// reach.
func sharesForeign(track []ival, owners []metal) bool {
	reach, owner := track[0].hi, owners[track[0].id].net
	other, hasOther := 0, false
	for _, iv := range track[1:] {
		net := owners[iv.id].net
		if net != owner && iv.lo <= reach || net == owner && hasOther && iv.lo <= other {
			return true
		}
		switch {
		case iv.hi > reach && net != owner:
			other, hasOther = reach, true
			reach, owner = iv.hi, net
		case iv.hi > reach:
			reach = iv.hi
		case net != owner && (!hasOther || iv.hi > other):
			other, hasOther = iv.hi, true
		}
	}
	return false
}

// firstConflict replays a track's intervals in id order over a dense
// occupancy slice, as a walk over every point would, and returns the
// first conflict. The track must hold one (sharesForeign).
func firstConflict(layer int, track []ival, owners []metal) conflict {
	slices.SortFunc(track, func(a, b ival) int { return cmp.Compare(a.id, b.id) })
	lo, hi := track[0].lo, track[0].hi
	for _, iv := range track[1:] {
		lo, hi = min(lo, iv.lo), max(hi, iv.hi)
	}
	last := make([]int, hi-lo+1) // 1 + id of the point's latest metal
	for _, iv := range track {
		for k := iv.lo; k <= iv.hi; k++ {
			if prev := last[k-lo] - 1; prev >= 0 && owners[prev].net != owners[iv.id].net {
				return conflict{iv.id, layer, iv.track, k, owners[prev].route}
			}
			last[k-lo] = iv.id + 1
		}
	}
	panic("verify: track without a conflict replayed")
}

// Connectivity checks that every successfully routed net electrically
// links all its terminals. Connectivity is layer-aware: wire points
// connect along their own layer; vias and terminal stacks bridge the
// layers at their point; perpendicular same-net crossings without a
// via do NOT connect. Intervals on one track join only when they share
// a grid point, so [0,3] and [4,6] stay apart.
func Connectivity(res *core.Result) error {
	// Size the scratch for the largest net, so a call allocates the
	// same few slices however many nets it checks.
	most := 0
	for _, nr := range res.Routes {
		if nr.Err == nil && len(nr.Terminals) >= 2 {
			most = max(most, len(nr.Segments)+len(nr.Vias)+len(nr.Terminals))
		}
	}
	if most == 0 {
		return nil
	}
	// sortByTrack needs at most two buckets per interval of a layer.
	u := unionFind{parent: make([]int, 0, most), ls: newLayers(most, most), buckets: make([]int, 4*most)}
	for _, nr := range res.Routes {
		if nr.Err != nil || len(nr.Terminals) < 2 {
			continue
		}
		if err := u.net(nr); err != nil {
			return err
		}
	}
	return nil
}

// unionFind is Connectivity's scratch, reused across the nets of a
// call: a disjoint-set forest over a net's segments, vias and
// terminals, and their intervals.
type unionFind struct {
	parent  []int
	ls      layers
	buckets []int
}

func (u *unionFind) fresh() int {
	u.parent = append(u.parent, len(u.parent))
	return len(u.parent) - 1
}

func (u *unionFind) find(x int) int {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

func (u *unionFind) union(a, b int) { u.parent[u.find(a)] = u.find(b) }

// net checks one net: it joins the segments and stacks whose intervals
// share a grid point on a layer, then requires every terminal in the
// first one's set.
func (u *unionFind) net(nr *core.NetRoute) error {
	u.parent = u.parent[:0]
	u.ls = layers{u.ls[layerH][:0], u.ls[layerV][:0]}
	for _, s := range nr.Segments {
		u.ls.segment(s, u.fresh())
	}
	for _, p := range nr.Vias {
		u.ls.stack(p, u.fresh())
	}
	term0 := len(u.parent)
	for _, p := range nr.Terminals {
		u.ls.stack(p, u.fresh())
	}
	// In order of first point, an interval shares a point with an
	// earlier one iff it starts at or before the furthest reach so far,
	// and then it shares one with the interval holding that reach.
	u.buckets = u.ls.eachTrack(u.buckets, func(_ int, track []ival) {
		reach, holder := track[0].hi, track[0].id
		for _, iv := range track[1:] {
			if iv.lo <= reach {
				u.union(iv.id, holder)
			}
			if iv.hi > reach {
				reach, holder = iv.hi, iv.id
			}
		}
	})
	root := u.find(term0)
	for k, p := range nr.Terminals[1:] {
		if u.find(term0+1+k) != root {
			return fmt.Errorf("verify: net %q terminal %v electrically disconnected", nr.Net.Name, p)
		}
	}
	return nil
}

// Region is an index-space exclusion rectangle with the layers it
// blocks (true = that layer is forbidden inside the region).
type Region struct {
	Cols, Rows       geom.Interval
	BlocksH, BlocksV bool
}

// AvoidsRegions checks that no net metal enters a forbidden region: a
// wire may not cross a region on a layer it blocks, and a via may not
// lie in a region that blocks either layer. Terminals are not checked
// here; the flow rejects a terminal inside an obstacle that blocks
// both layers, and the router any terminal on a blocked grid point,
// before routing starts.
func AvoidsRegions(res *core.Result, regions []Region) error {
	for _, nr := range res.Routes {
		for _, s := range nr.Segments {
			if k, ok := firstBlocked(s, regions); ok {
				return fmt.Errorf("verify: net %q wire enters exclusion region at %v", nr.Net.Name, point(layerOf(s), s.Track, k))
			}
		}
		for _, v := range nr.Vias {
			for _, r := range regions {
				if r.Cols.Contains(v.Col) && r.Rows.Contains(v.Row) && (r.BlocksH || r.BlocksV) {
					return fmt.Errorf("verify: net %q via inside exclusion region at %v", nr.Net.Name, v)
				}
			}
		}
	}
	return nil
}

// firstBlocked returns the lowest point of s inside a region that
// blocks its layer: the least max(s.Lo, along.Lo) over the regions
// whose cross-track range holds s's track and whose range along it
// meets s.
func firstBlocked(s core.Segment, regions []Region) (int, bool) {
	first, found := 0, false
	for _, r := range regions {
		across, along, blocks := r.Rows, r.Cols, r.BlocksH
		if !s.Horizontal {
			across, along, blocks = r.Cols, r.Rows, r.BlocksV
		}
		if !blocks || !across.Contains(s.Track) {
			continue
		}
		if iv := along.Intersect(geom.Iv(s.Lo, s.Hi)); !iv.Empty() && (!found || iv.Lo < first) {
			first, found = iv.Lo, true
		}
	}
	return first, found
}

// LevelB runs all checks.
func LevelB(res *core.Result, regions []Region) error {
	if err := Conflicts(res); err != nil {
		return err
	}
	if err := Connectivity(res); err != nil {
		return err
	}
	return AvoidsRegions(res, regions)
}
