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
	// net numbers, for per-net delay estimation.
	NetFeedthroughLen map[int]int
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
			return &Assignment{ColPitch: l.Tech.M12Pitch, NetFeedthroughLen: map[int]int{}}, nil
		}
		return nil, robust.Invalidf("global: %d nets but the layout has no channels", len(nets))
	}
	pitch := l.Tech.M12Pitch
	ncols := l.Width()/pitch + 1
	a := &Assignment{ColPitch: pitch, NetFeedthroughLen: map[int]int{}}
	for i := 0; i < nch; i++ {
		a.Problems = append(a.Problems, &channel.Problem{
			Top:    make([]int, ncols),
			Bottom: make([]int, ncols),
		})
	}
	ft := newFeedthroughs(l, pitch)

	// Deterministic net order.
	ordered := append([]Net(nil), nets...)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].ID < ordered[j].ID })

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
// crossing each cell row (the gaps between and beside the cells).
type feedthroughs struct {
	pitch int
	rows  [][]geom.Interval // free x-intervals per row, shrinking as slots are taken
	used  []map[int]bool    // x positions taken per row
}

func newFeedthroughs(l *floorplan.Layout, pitch int) *feedthroughs {
	ft := &feedthroughs{pitch: pitch}
	for i := range l.Rows {
		ft.rows = append(ft.rows, l.Gaps(i))
		ft.used = append(ft.used, map[int]bool{})
	}
	return ft
}

// take reserves the feedthrough slot in row r closest to the desired x
// and returns its position.
func (ft *feedthroughs) take(r, want int) (int, bool) {
	best, bestD := 0, -1
	for _, gap := range ft.rows[r] {
		// Candidate slots are pitch-aligned positions inside the gap.
		lo := (gap.Lo + ft.pitch - 1) / ft.pitch * ft.pitch
		for x := lo; x <= gap.Hi; x += ft.pitch {
			if ft.used[r][x] {
				continue
			}
			d := x - want
			if d < 0 {
				d = -d
			}
			if bestD < 0 || d < bestD {
				best, bestD = x, d
			}
		}
	}
	if bestD < 0 {
		return 0, false
	}
	ft.used[r][best] = true
	return best, true
}
