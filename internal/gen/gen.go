// Package gen builds macro-cell benchmark instances. The MCNC
// benchmarks the paper evaluates (ami33, Xerox) and its industrial
// example (ex3) are not redistributable here, so the generators
// synthesise instances whose published aggregate statistics match
// Table 1 of the paper: cell count, net count, and the number and mean
// fanout of the nets routed at level A (critical and timing nets).
// The routing algorithms consume only cell rectangles, pin positions
// and net membership, so matching these statistics exercises identical
// code paths; EXPERIMENTS.md records the comparison methodology.
//
// All generation is deterministic: the same Params produce the same
// instance on every platform.
package gen

import (
	"fmt"
	"math/rand"
	"sort"

	"overcell/internal/floorplan"
	"overcell/internal/geom"
	"overcell/internal/global"
	"overcell/internal/grid"
	"overcell/internal/netlist"
)

// NetSpec describes one net against the floorplan: its pins are
// resolved to coordinates only after placement, so the same instance
// can be placed differently by different flows.
type NetSpec struct {
	Name        string
	Class       netlist.Class
	Criticality int
	Pins        []*floorplan.Pin
}

// Instance is a complete benchmark: a floorplan, its nets, and the
// level B obstacle specification.
type Instance struct {
	Name   string
	Layout *floorplan.Layout
	Nets   []NetSpec
	// RailHalfWidth is the half-height of the horizontal power/ground
	// rail running over the middle of every cell row on metal3; rails
	// become MaskH obstacles for level B routing.
	RailHalfWidth int
}

// LevelA reports whether a net is routed in channels under the paper's
// experimental partition (critical and timing nets at level A).
func (s NetSpec) LevelA() bool {
	return s.Class == netlist.Critical || s.Class == netlist.Timing
}

// BuildNetlist materialises a netlist from the current placement for
// the given subset of nets.
func (inst *Instance) BuildNetlist(subset func(NetSpec) bool) *netlist.Netlist {
	nl := netlist.New()
	for _, s := range inst.Nets {
		if subset != nil && !subset(s) {
			continue
		}
		terms := make([]netlist.Terminal, len(s.Pins))
		for i, p := range s.Pins {
			terms[i] = netlist.Terminal{
				Pos:  p.Pos(),
				Name: p.Cell().Name + "." + p.Name,
			}
		}
		n := nl.Add(s.Name, s.Class, terms...)
		n.Criticality = s.Criticality
	}
	return nl
}

// GlobalNets converts a subset of the nets to the global router's
// representation, numbering them densely.
func (inst *Instance) GlobalNets(subset func(NetSpec) bool) []global.Net {
	var out []global.Net
	id := netlist.NetID(0)
	for _, s := range inst.Nets {
		if subset != nil && !subset(s) {
			continue
		}
		out = append(out, global.Net{ID: id, Name: s.Name, Pins: s.Pins})
		id++
	}
	return out
}

// Obstacles returns the level B obstacle rectangles for the current
// placement: sensitive cells block both layers; the per-row power
// rails block the horizontal layer only.
type Obstacle struct {
	Rect geom.Rect
	Mask grid.Mask
}

// Obstacles resolves the obstacle specification against the current
// placement. Valid only after Place.
func (inst *Instance) Obstacles() []Obstacle {
	var out []Obstacle
	for _, c := range inst.Layout.Cells() {
		if c.Sensitive {
			out = append(out, Obstacle{Rect: c.Rect(), Mask: grid.MaskBoth})
		}
	}
	if inst.RailHalfWidth > 0 {
		for i := range inst.Layout.Rows {
			rr := inst.Layout.RowRect(i)
			cy := (rr.Y0 + rr.Y1) / 2
			out = append(out, Obstacle{
				Rect: geom.R(rr.X0, cy-inst.RailHalfWidth, rr.X1, cy+inst.RailHalfWidth),
				Mask: grid.MaskH,
			})
		}
	}
	return out
}

// Params drives Generate.
type Params struct {
	Name string
	Seed int64
	// Layout shape.
	Rows, Cells        int
	CellWMin, CellWMax int
	CellHMin, CellHMax int
	RowGap, Margin     int
	SensitivePerMille  int // fraction of cells marked sensitive, in 1/1000
	// Netlist shape.
	SignalNets    int   // two-to-four-pin signal nets (level B)
	LevelANets    []int // pin count of each critical/timing net (level A)
	RailHalfWidth int
}

// Generate builds a deterministic instance from the parameters.
func Generate(p Params) (*Instance, error) {
	if p.Rows < 2 {
		return nil, fmt.Errorf("gen: need at least 2 rows, got %d", p.Rows)
	}
	if p.Cells < p.Rows {
		return nil, fmt.Errorf("gen: %d cells cannot fill %d rows", p.Cells, p.Rows)
	}
	if p.CellWMin <= 0 || p.CellWMax < p.CellWMin || p.CellHMin <= 0 || p.CellHMax < p.CellHMin {
		return nil, fmt.Errorf("gen: bad cell size range")
	}
	rng := rand.New(rand.NewSource(p.Seed))
	tech := floorplan.DefaultTech()
	l := floorplan.New(tech, 4*tech.M34Pitch)

	inst := &Instance{Name: p.Name, Layout: l, RailHalfWidth: p.RailHalfWidth}

	// Distribute cells round-robin over the rows.
	perRow := make([]int, p.Rows)
	for i := 0; i < p.Cells; i++ {
		perRow[i%p.Rows]++
	}
	var cells []*floorplan.Cell
	for r := 0; r < p.Rows; r++ {
		row := l.AddRow(p.RowGap)
		for k := 0; k < perRow[r]; k++ {
			w := p.CellWMin + rng.Intn(p.CellWMax-p.CellWMin+1)
			h := p.CellHMin + rng.Intn(p.CellHMax-p.CellHMin+1)
			// Snap sizes to the channel pitch so pin slots align.
			w = w / tech.M12Pitch * tech.M12Pitch
			h = h / tech.M12Pitch * tech.M12Pitch
			c := row.AddCell(fmt.Sprintf("c%02d_%02d", r, k), w, h)
			if rng.Intn(1000) < p.SensitivePerMille {
				c.Sensitive = true
			}
		}
	}
	cells = l.Cells()

	// Provisional placement so pin positions resolve during checks.
	if err := l.Place(make([]int, l.NumChannels())); err != nil {
		return nil, err
	}

	g := &pinAllocator{rng: rng, tech: tech, rows: p.Rows}
	neighbours := nearestCells(cells, 6)

	// Level A nets first (critical / timing). High-fanout nets (clock
	// and control distribution) span the chip; low-fanout critical
	// nets are local, like any other logic net.
	for i, pins := range p.LevelANets {
		class := netlist.Critical
		if i%2 == 1 {
			class = netlist.Timing
		}
		spec := NetSpec{
			Name:        fmt.Sprintf("a%03d", i),
			Class:       class,
			Criticality: 10 - i%5,
		}
		pool := cells
		if pins <= 8 {
			pool = neighbours[cells[rng.Intn(len(cells))]]
		}
		for k := 0; k < pins; k++ {
			pin, err := g.alloc(pool)
			if err != nil {
				pin, err = g.alloc(cells)
				if err != nil {
					return nil, fmt.Errorf("gen: level A net %d pin %d: %w", i, k, err)
				}
			}
			spec.Pins = append(spec.Pins, pin)
		}
		inst.Nets = append(inst.Nets, spec)
	}
	// Signal nets (level B): 2-4 pins. Real netlists are local (Rent's
	// rule): most connections join nearby cells, with a small global
	// fraction. Each net anchors on a random cell and draws its other
	// pins from the anchor's nearest neighbours, except for one net in
	// ten which may span the whole chip.
	for i := 0; i < p.SignalNets; i++ {
		pins := 2
		switch rng.Intn(10) {
		case 7, 8:
			pins = 3
		case 9:
			pins = 4
		}
		spec := NetSpec{Name: fmt.Sprintf("s%03d", i), Class: netlist.Signal}
		anchor := cells[rng.Intn(len(cells))]
		pool := cells
		if rng.Intn(10) != 0 {
			pool = neighbours[anchor]
		}
		for k := 0; k < pins; k++ {
			from := pool
			if k == 0 {
				from = []*floorplan.Cell{anchor}
			}
			pin, err := g.alloc(from)
			if err != nil {
				// The local pool may be exhausted (or all sensitive);
				// fall back to the whole chip.
				pin, err = g.alloc(cells)
				if err != nil {
					return nil, fmt.Errorf("gen: signal net %d pin %d: %w", i, k, err)
				}
			}
			spec.Pins = append(spec.Pins, pin)
		}
		inst.Nets = append(inst.Nets, spec)
	}
	return inst, nil
}

// nearestCells returns, per cell, the k cells closest to it (by centre
// distance), including itself.
func nearestCells(cells []*floorplan.Cell, k int) map[*floorplan.Cell][]*floorplan.Cell {
	out := make(map[*floorplan.Cell][]*floorplan.Cell, len(cells))
	for _, c := range cells {
		sorted := append([]*floorplan.Cell(nil), cells...)
		cc := c.Rect().Center()
		sortCellsBy(sorted, func(a, b *floorplan.Cell) bool {
			da := a.Rect().Center().Manhattan(cc)
			db := b.Rect().Center().Manhattan(cc)
			if da != db {
				return da < db
			}
			return a.Name < b.Name
		})
		n := k
		if n > len(sorted) {
			n = len(sorted)
		}
		out[c] = sorted[:n]
	}
	return out
}

func sortCellsBy(cells []*floorplan.Cell, less func(a, b *floorplan.Cell) bool) {
	sort.SliceStable(cells, func(i, j int) bool { return less(cells[i], cells[j]) })
}

// pinAllocator hands out unique (cell, side, offset) pin slots.
type pinAllocator struct {
	rng  *rand.Rand
	tech floorplan.Tech
	rows int
	used map[*floorplan.Cell]map[[2]int]bool
}

// alloc picks a random free pin slot. Every pin faces a real channel
// (the baseline flow routes all nets in channels, so outward edges of
// the outer rows carry no pins) and sensitive cells carry no pins at
// all (their over-cell exclusion zone would swallow their own
// terminals in the level B flows).
func (g *pinAllocator) alloc(cells []*floorplan.Cell) (*floorplan.Pin, error) {
	if g.used == nil {
		g.used = map[*floorplan.Cell]map[[2]int]bool{}
	}
	const maxTries = 4000
	for try := 0; try < maxTries; try++ {
		c := cells[g.rng.Intn(len(cells))]
		if c.Sensitive {
			continue
		}
		side := floorplan.PinTop
		if g.rng.Intn(2) == 1 {
			side = floorplan.PinBottom
		}
		// Bottom row must pin upward, top row downward.
		if c.Row() == 0 {
			side = floorplan.PinTop
		} else if c.Row() == g.rows-1 {
			side = floorplan.PinBottom
		}
		slots := c.W/g.tech.M12Pitch - 1
		if slots < 1 {
			continue
		}
		dx := (1 + g.rng.Intn(slots)) * g.tech.M12Pitch
		key := [2]int{int(side), dx}
		if g.used[c] == nil {
			g.used[c] = map[[2]int]bool{}
		}
		if g.used[c][key] {
			continue
		}
		g.used[c][key] = true
		return c.AddPin(fmt.Sprintf("p%d", len(c.Pins)), dx, side), nil
	}
	return nil, fmt.Errorf("no free pin slot after %d tries", maxTries)
}

// The three evaluation instances, sized after Table 1 of the paper.

// Ami33Like mirrors ami33: 33 macro cells, 123 nets of which 4
// high-fanout critical/timing nets average 44.25 pins (177 pins).
func Ami33Like() (*Instance, error) {
	return Generate(Params{
		Name: "ami33", Seed: 33,
		Rows: 4, Cells: 33,
		CellWMin: 240, CellWMax: 420, CellHMin: 140, CellHMax: 220,
		RowGap: 64, Margin: 48,
		SensitivePerMille: 90,
		SignalNets:        119,
		LevelANets:        []int{45, 44, 44, 44}, // mean 44.25
		RailHalfWidth:     6,
	})
}

// XeroxLike mirrors Xerox: 10 large macro cells, 203 nets of which 21
// critical/timing nets average 9.19 pins (193 pins).
func XeroxLike() (*Instance, error) {
	levelA := make([]int, 21)
	pins := 193
	for i := range levelA {
		levelA[i] = 9
	}
	for i := 0; i < pins-21*9; i++ { // distribute the remainder: 4 nets get 10
		levelA[i]++
	}
	return Generate(Params{
		Name: "xerox", Seed: 10,
		Rows: 3, Cells: 10,
		CellWMin: 900, CellWMax: 1400, CellHMin: 500, CellHMax: 800,
		RowGap: 96, Margin: 64,
		SensitivePerMille: 100,
		SignalNets:        182,
		LevelANets:        levelA,
		RailHalfWidth:     8,
	})
}

// Ex3Like mirrors the industrial example ex3: the paper reports only
// its level A statistics (56 nets averaging 3.23 pins, 181 pins); the
// rest of the instance is sized like a mid-size macro-cell chip.
func Ex3Like() (*Instance, error) {
	levelA := make([]int, 56)
	pins := 181
	for i := range levelA {
		levelA[i] = 3
	}
	for i := 0; i < pins-56*3; i++ {
		levelA[i]++
	}
	return Generate(Params{
		Name: "ex3", Seed: 3,
		Rows: 5, Cells: 28,
		CellWMin: 280, CellWMax: 520, CellHMin: 160, CellHMax: 260,
		RowGap: 128, Margin: 48,
		SensitivePerMille: 70,
		SignalNets:        184, // 240 nets total
		LevelANets:        levelA,
		RailHalfWidth:     6,
	})
}
