package channel

import (
	"fmt"
	"sort"
)

// Segment is a horizontal wire run of a net along a track. Tracks are
// indexed from the top of the channel starting at 0. Lo and Hi are
// inclusive column bounds; a zero-length segment (Lo == Hi) is a mere
// landing point.
type Segment struct {
	Net    int
	Track  int
	Lo, Hi int
}

// Vertical is a vertical wire run of a net at one column, from track
// FromTrack to track ToTrack (FromTrack <= ToTrack), optionally
// extended to the channel's top and/or bottom edge to reach a pin.
// Taps lists the tracks where the vertical connects to the net's
// horizontal wire through a via.
type Vertical struct {
	Net                int
	Col                int
	FromTrack, ToTrack int
	TouchTop           bool
	TouchBottom        bool
	Taps               []int
}

// Solution is a routed channel.
type Solution struct {
	Tracks      int
	Width       int // columns actually used (>= problem width when the greedy router extends)
	Horizontals []Segment
	Verticals   []Vertical
	Algorithm   string
}

// WireLength returns the total wire length: horizontal spans in column
// pitches times colPitch, plus vertical runs in track pitches times
// trackPitch. The channel's vertical geometry places track t at
// (t+1)*trackPitch below the top edge, so a channel with T tracks is
// (T+1)*trackPitch tall.
func (s *Solution) WireLength(colPitch, trackPitch int) int {
	total := 0
	for _, h := range s.Horizontals {
		total += (h.Hi - h.Lo) * colPitch
	}
	for _, v := range s.Verticals {
		total += v.Length(s.Tracks, trackPitch)
	}
	return total
}

// Length returns the vertical's wire length in track pitches times
// trackPitch, in a channel of the given number of tracks.
func (v Vertical) Length(tracks, trackPitch int) int {
	y0, y1 := (v.FromTrack+1)*trackPitch, (v.ToTrack+1)*trackPitch
	if v.TouchTop {
		y0 = 0
	}
	if v.TouchBottom {
		y1 = (tracks + 1) * trackPitch
	}
	return y1 - y0
}

// ViaCount returns the number of routing vias: one per tap (a
// vertical-to-track junction). Pin contacts are excluded — the paper
// folds terminal connections into the terminal design ("no extra
// routing space is required for the net terminal connections",
// section 2), so they are identical across flows and cancel out of
// every comparison.
func (s *Solution) ViaCount() int {
	n := 0
	for _, v := range s.Verticals {
		n += len(v.Taps)
	}
	return n
}

// Height returns the channel height in track pitches: tracks plus the
// two half-pitch margins to the pin rows.
func (s *Solution) Height(trackPitch int) int {
	return (s.Tracks + 1) * trackPitch
}

// Validate checks the solution against the problem: design rules (no
// same-track horizontal overlap, no same-column vertical overlap
// between different nets), pin coverage, geometric consistency of
// taps, and full per-net electrical connectivity.
func (s *Solution) Validate(p *Problem) error {
	if err := s.checkDesignRules(); err != nil {
		return err
	}
	if err := s.checkTaps(); err != nil {
		return err
	}
	return s.checkConnectivity(p)
}

func (s *Solution) checkDesignRules() error {
	// Horizontal overlap per track.
	byTrack := make([][]Segment, s.Tracks)
	for _, h := range s.Horizontals {
		if h.Lo > h.Hi {
			return fmt.Errorf("channel: segment with Lo > Hi: %+v", h)
		}
		if h.Track < 0 || h.Track >= s.Tracks {
			return fmt.Errorf("channel: segment on track %d of %d", h.Track, s.Tracks)
		}
		byTrack[h.Track] = append(byTrack[h.Track], h)
	}
	for track, segs := range byTrack {
		if a, b, ok := foreignOverlap(segs); ok {
			return fmt.Errorf("channel: track %d overlap between nets %d and %d", track, a, b)
		}
	}
	// Vertical overlap per column, the columns in order.
	for _, v := range s.Verticals {
		if v.FromTrack > v.ToTrack {
			return fmt.Errorf("channel: vertical with FromTrack > ToTrack: %+v", v)
		}
	}
	byCol := append([]Vertical(nil), s.Verticals...)
	sort.SliceStable(byCol, func(i, j int) bool { return byCol[i].Col < byCol[j].Col })
	for i, a := range byCol {
		for _, b := range byCol[i+1:] {
			if b.Col != a.Col {
				break
			}
			if a.Net == b.Net {
				continue
			}
			// Treat edge touches as extending past the outermost track.
			aLo, aHi := bounds(a, s.Tracks)
			bLo, bHi := bounds(b, s.Tracks)
			if aLo <= bHi && bLo <= aHi {
				return fmt.Errorf("channel: column %d vertical overlap between nets %d and %d",
					a.Col, a.Net, b.Net)
			}
		}
	}
	return nil
}

// foreignOverlap sorts one track's segments by Lo and reports the first
// segment, in that order, that shares a column with an earlier segment
// of another net: that net, then its own. It follows the segment
// reaching furthest and the furthest reach of any other net, so a
// segment inside a longer one of another net is found even when
// shorter segments of either net lie between them.
func foreignOverlap(segs []Segment) (earlier, net int, ok bool) {
	if len(segs) < 2 {
		return 0, 0, false
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].Lo < segs[j].Lo })
	reach, owner := segs[0].Hi, segs[0].Net
	other, otherNet, hasOther := 0, 0, false
	for _, b := range segs[1:] {
		switch {
		case b.Net != owner && b.Lo <= reach:
			return owner, b.Net, true
		case b.Net == owner && hasOther && b.Lo <= other:
			return otherNet, b.Net, true
		}
		switch {
		case b.Hi > reach && b.Net != owner:
			other, otherNet, hasOther = reach, owner, true
			reach, owner = b.Hi, b.Net
		case b.Hi > reach:
			reach = b.Hi
		case b.Net != owner && (!hasOther || b.Hi > other):
			other, otherNet, hasOther = b.Hi, b.Net, true
		}
	}
	return 0, 0, false
}

// bounds maps a vertical to a comparable [lo,hi] range in half-track
// units so edge touches occupy the space beyond the outer tracks.
func bounds(v Vertical, tracks int) (int, int) {
	lo, hi := v.FromTrack, v.ToTrack
	if v.TouchTop {
		lo = -1
	}
	if v.TouchBottom {
		hi = tracks
	}
	return lo, hi
}

func (s *Solution) checkTaps() error {
	for _, v := range s.Verticals {
		for _, tap := range v.Taps {
			if tap < v.FromTrack || tap > v.ToTrack {
				return fmt.Errorf("channel: net %d column %d tap %d outside vertical [%d,%d]",
					v.Net, v.Col, tap, v.FromTrack, v.ToTrack)
			}
			found := false
			for _, h := range s.Horizontals {
				if h.Net == v.Net && h.Track == tap && h.Lo <= v.Col && v.Col <= h.Hi {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("channel: net %d column %d tap %d lands on no segment",
					v.Net, v.Col, tap)
			}
		}
	}
	return nil
}

// checkConnectivity verifies that all pins and wire pieces of every
// net form a single electrically connected component, where verticals
// join segments only at tap points and pins join the vertical touching
// their edge at their column.
func (s *Solution) checkConnectivity(p *Problem) error {
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
	newNode := func() int {
		parent = append(parent, len(parent))
		return len(parent) - 1
	}

	segID := make([]int, len(s.Horizontals))
	for i := range s.Horizontals {
		segID[i] = newNode()
	}
	vertID := make([]int, len(s.Verticals))
	for i := range s.Verticals {
		vertID[i] = newNode()
	}
	// Merge same-net collinear touching segments (a net may have two
	// abutting spans on one track from separate routing steps).
	for i := 0; i < len(s.Horizontals); i++ {
		for j := i + 1; j < len(s.Horizontals); j++ {
			a, b := s.Horizontals[i], s.Horizontals[j]
			if a.Net == b.Net && a.Track == b.Track && a.Lo <= b.Hi+1 && b.Lo <= a.Hi+1 {
				union(segID[i], segID[j])
			}
		}
	}
	// Taps connect verticals to segments.
	for i, v := range s.Verticals {
		for _, tap := range v.Taps {
			for j, h := range s.Horizontals {
				if h.Net == v.Net && h.Track == tap && h.Lo <= v.Col && v.Col <= h.Hi {
					union(vertID[i], segID[j])
				}
			}
		}
	}
	// Same-net verticals at the same column overlap-connect.
	for i := 0; i < len(s.Verticals); i++ {
		for j := i + 1; j < len(s.Verticals); j++ {
			a, b := s.Verticals[i], s.Verticals[j]
			if a.Net == b.Net && a.Col == b.Col {
				aLo, aHi := bounds(a, s.Tracks)
				bLo, bHi := bounds(b, s.Tracks)
				if aLo <= bHi && bLo <= aHi {
					union(vertID[i], vertID[j])
				}
			}
		}
	}

	// Every pin must attach to a vertical of its net touching its edge.
	type pinNode struct{ net, node int }
	var pinNodes []pinNode
	for c := 0; c < p.Width(); c++ {
		for side, net := range []int{p.Top[c], p.Bottom[c]} {
			if net == 0 {
				continue
			}
			attached := -1
			for i, v := range s.Verticals {
				if v.Net != net || v.Col != c {
					continue
				}
				if side == 0 && v.TouchTop || side == 1 && v.TouchBottom {
					attached = vertID[i]
					break
				}
			}
			if attached < 0 {
				return fmt.Errorf("channel: pin of net %d at column %d (side %d) unconnected", net, c, side)
			}
			pinNodes = append(pinNodes, pinNode{net, attached})
		}
	}
	// All pieces of one net must be in one component.
	netRoot := map[int]int{}
	check := func(net, node int) error {
		r := find(node)
		if prev, ok := netRoot[net]; ok && prev != r {
			return fmt.Errorf("channel: net %d is electrically split", net)
		}
		netRoot[net] = r
		return nil
	}
	for i, h := range s.Horizontals {
		if err := check(h.Net, segID[i]); err != nil {
			return err
		}
	}
	for i, v := range s.Verticals {
		if err := check(v.Net, vertID[i]); err != nil {
			return err
		}
	}
	for _, pn := range pinNodes {
		if err := check(pn.net, pn.node); err != nil {
			return err
		}
	}
	return nil
}
