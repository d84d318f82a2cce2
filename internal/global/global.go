// Package global implements level A global routing: it assigns each
// channel-routed net to the routing channels it traverses, inserts
// feedthrough crossings through the cell rows for nets spanning
// multiple channels, and emits one channel.Problem per channel for
// detailed routing. This is the decomposition step the paper describes
// for level A: "the router divides the routing problem into several
// channel routing problems which are then solved separately"
// (section 3).
package global

import (
	"fmt"
	"slices"
	"sort"

	"overcell/internal/floorplan"
	"overcell/internal/geom"
	"overcell/internal/netlist"
	"overcell/internal/robust"

	"overcell/internal/channel"
)

// Net couples a netlist net with the floorplan pins realising its
// terminals.
type Net struct {
	ID   netlist.NetID
	Name string
	Pins []*floorplan.Pin
}

// Assignment is the result of global routing: one channel routing
// problem per channel plus feedthrough bookkeeping.
type Assignment struct {
	Problems []*channel.Problem
	ColPitch int
	// Feedthroughs counts row crossings; FeedthroughLen is the wire
	// length they add (one row height each).
	Feedthroughs   int
	FeedthroughLen int
	// NetFeedthroughLen attributes feedthrough wire length to channel
	// net numbers, for per-net delay estimation: a net's channel number
	// is its ID plus one, and the slice runs to the largest.
	NetFeedthroughLen []int
}

// Assign performs global routing for the given nets over the layout.
// The layout must be placed (channel heights may be provisional: only
// x-coordinates and row membership are consumed here).
func Assign(l *floorplan.Layout, nets []Net) (*Assignment, error) {
	if !l.Placed() {
		return nil, fmt.Errorf("global: layout not placed")
	}
	nch := l.NumChannels()
	if nch == 0 {
		if len(nets) == 0 {
			return &Assignment{ColPitch: l.Tech.M12Pitch}, nil
		}
		return nil, robust.Invalidf("global: %d nets but the layout has no channels", len(nets))
	}
	// Deterministic net order.
	ordered := append([]Net(nil), nets...)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].ID < ordered[j].ID })
	pitch := l.Tech.M12Pitch
	ncols := l.Width()/pitch + 1
	a := &Assignment{ColPitch: pitch}
	if len(ordered) > 0 {
		if ordered[0].ID < 0 {
			return nil, robust.Invalidf("global: net %q has negative ID %d", ordered[0].Name, ordered[0].ID)
		}
		a.NetFeedthroughLen = make([]int, int(ordered[len(ordered)-1].ID)+2)
	}
	for i := 0; i < nch; i++ {
		a.Problems = append(a.Problems, &channel.Problem{
			Top:    make([]int, ncols),
			Bottom: make([]int, ncols),
		})
	}
	ft := newFeedthroughs(l, pitch)

	for _, net := range ordered {
		if err := assignNet(l, a, ft, net, ncols); err != nil {
			return nil, err
		}
	}
	return a, nil
}

// side identifies a channel edge: 0 = top (pins of the row above),
// 1 = bottom (pins of the row below).
const (
	sideTop = 0
	sideBot = 1
)

func assignNet(l *floorplan.Layout, a *Assignment, ft *feedthroughs, net Net, ncols int) error {
	if len(net.Pins) < 2 {
		return robust.Invalidf("global: net %q has %d pin(s)", net.Name, len(net.Pins))
	}
	nch := l.NumChannels()
	num := int(net.ID) + 1 // channel net numbers are 1-based

	minC, maxC := nch, -1
	var xs []int
	for _, p := range net.Pins {
		c := p.ChannelIndex()
		if c < 0 || c >= nch {
			return robust.Invalidf("global: net %q pin %q.%q faces no channel (index %d)",
				net.Name, p.Cell().Name, p.Name, c)
		}
		if c < minC {
			minC = c
		}
		if c > maxC {
			maxC = c
		}
		xs = append(xs, p.Pos().X)
	}
	sort.Ints(xs)
	trunkX := xs[len(xs)/2]

	// Cell pins: a pin on the top edge of row r is on the BOTTOM side
	// of channel r; a pin on the bottom edge of row r+1 is on the TOP
	// side of channel r.
	for _, p := range net.Pins {
		c := p.ChannelIndex()
		side := sideBot
		if p.Side == floorplan.PinBottom {
			side = sideTop
		}
		if err := placePin(a.Problems[c], side, p.Pos().X/a.ColPitch, num, ncols); err != nil {
			return fmt.Errorf("global: net %q: %w", net.Name, err)
		}
	}
	// Feedthrough trunk: crossing row r joins channel r-1 (its top
	// side) to channel r (its bottom side).
	for r := minC + 1; r <= maxC; r++ {
		x, ok := ft.take(r, trunkX)
		if !ok {
			return fmt.Errorf("global: net %q: no feedthrough capacity in row %d: %w",
				net.Name, r, robust.ErrUnroutable)
		}
		col := x / a.ColPitch
		if err := placePin(a.Problems[r-1], sideTop, col, num, ncols); err != nil {
			return fmt.Errorf("global: net %q: %w", net.Name, err)
		}
		if err := placePin(a.Problems[r], sideBot, col, num, ncols); err != nil {
			return fmt.Errorf("global: net %q: %w", net.Name, err)
		}
		a.Feedthroughs++
		a.FeedthroughLen += l.Rows[r].Height()
		a.NetFeedthroughLen[num] += l.Rows[r].Height()
	}
	return nil
}

// placePin claims the nearest free column slot to the requested one on
// the given channel side. A slot already holding the same net is
// reused (a no-op), mirroring shared pin alignment.
func placePin(p *channel.Problem, side, col, net, ncols int) error {
	edge := p.Top
	if side == sideBot {
		edge = p.Bottom
	}
	for d := 0; d < ncols; d++ {
		for _, c := range []int{col - d, col + d} {
			if c < 0 || c >= ncols {
				continue
			}
			if edge[c] == net {
				return nil
			}
			if edge[c] == 0 {
				edge[c] = net
				return nil
			}
		}
	}
	return fmt.Errorf("channel edge full (%d columns): %w", ncols, robust.ErrUnroutable)
}

// feedthroughs tracks the column slots available for vertical wires
// crossing each cell row: the pitch-aligned positions in the gaps
// between and beside the cells.
type feedthroughs struct {
	slots [][]int  // slot x positions per row, ascending
	used  [][]bool // parallel to slots: taken
}

func newFeedthroughs(l *floorplan.Layout, pitch int) *feedthroughs {
	gaps := make([][]geom.Interval, len(l.Rows))
	n := 0
	for i := range l.Rows {
		gaps[i] = l.Gaps(i)
		for _, gap := range gaps[i] {
			if lo := alignUp(gap.Lo, pitch); lo <= gap.Hi {
				n += (gap.Hi-lo)/pitch + 1
			}
		}
	}
	// Every row's slots share one array, as do their used flags.
	xs := make([]int, 0, n)
	used := make([]bool, n)
	ft := &feedthroughs{slots: make([][]int, len(l.Rows)), used: make([][]bool, len(l.Rows))}
	for i, row := range gaps {
		first := len(xs)
		for _, gap := range row {
			for x := alignUp(gap.Lo, pitch); x <= gap.Hi; x += pitch {
				xs = append(xs, x)
			}
		}
		ft.slots[i] = xs[first:len(xs):len(xs)]
		ft.used[i] = used[first:len(xs):len(xs)]
	}
	return ft
}

func alignUp(x, pitch int) int { return (x + pitch - 1) / pitch * pitch }

// take reserves the free feedthrough slot in row r closest to the
// desired x, the left one of two equally close, and returns its
// position.
func (ft *feedthroughs) take(r, want int) (int, bool) {
	xs, used := ft.slots[r], ft.used[r]
	right, _ := slices.BinarySearch(xs, want)
	left := right - 1
	for right < len(xs) && used[right] {
		right++
	}
	for left >= 0 && used[left] {
		left--
	}
	var best int
	switch {
	case left >= 0 && (right == len(xs) || want-xs[left] <= xs[right]-want):
		best = left
	case right < len(xs):
		best = right
	default:
		return 0, false
	}
	used[best] = true
	return xs[best], true
}
