// Package netlist models the interconnection sets the router consumes:
// nets with two or more terminals and net classes. The flows partition
// the nets by class into set A (channel-routed on metal1/metal2) and
// set B (routed over the entire layout on metal3/metal4), as described
// in section 2 of Katsadas & Chen (DAC 1990); see gen.NetSpec.LevelA
// and flow.Options.Partition.
//
// Entire nets are assigned to exactly one set; multi-terminal nets are
// never split across the two sets, so every two-terminal partition of
// a net is realised on the same layer pair and only the final terminal
// connections pass through intervening layers.
package netlist

import (
	"fmt"
	"sort"

	"overcell/internal/geom"
	"overcell/internal/robust"
)

// Class describes the functional role of a net. The flows' partition
// uses classes to decide which routing level a net belongs to.
type Class int

// Net classes, ordered roughly by routing priority.
const (
	Signal   Class = iota // ordinary signal net
	Critical              // timing-critical signal net
	Timing                // clock / timing distribution net
	Power                 // power supply net
	Ground                // ground net
)

var classNames = [...]string{"signal", "critical", "timing", "power", "ground"}

// String implements fmt.Stringer.
func (c Class) String() string {
	if c < 0 || int(c) >= len(classNames) {
		return fmt.Sprintf("class(%d)", int(c))
	}
	return classNames[c]
}

// NetID identifies a net within a Netlist. IDs are dense indices
// assigned by the Netlist in insertion order.
type NetID int

// Terminal is one pin of a net, located at a fixed layout position.
// Positions are final only after level A routing completes; the level
// B router treats them as immovable.
type Terminal struct {
	Pos  geom.Point
	Name string // optional: "<cell>.<pin>" provenance for reports
}

// Net is a single electrical net.
type Net struct {
	ID        NetID
	Name      string
	Class     Class
	Terminals []Terminal
	// Criticality orders nets under the user-specified ordering
	// criterion (section 3: "The option of a user specified ordering
	// criterion, such as net criticality, can be exercised").
	// Higher values route earlier.
	Criticality int
}

// Pins returns the number of terminals of the net.
func (n *Net) Pins() int { return len(n.Terminals) }

// BBox returns the bounding rectangle of the net's terminals. A net
// without terminals is malformed input (validated netlists never
// contain one) and yields a zero rectangle and an error matching
// robust.ErrInvalidInput.
func (n *Net) BBox() (geom.Rect, error) {
	if len(n.Terminals) == 0 {
		return geom.Rect{}, robust.Invalidf("netlist: BBox of net %q (#%d) without terminals",
			n.Name, n.ID)
	}
	r := geom.RectFromPoints(n.Terminals[0].Pos, n.Terminals[0].Pos)
	for _, t := range n.Terminals[1:] {
		r = r.Union(geom.RectFromPoints(t.Pos, t.Pos))
	}
	return r, nil
}

// HalfPerimeter returns the half-perimeter wire length estimate of the
// net, the classic lower bound used for ordering and reporting. A
// terminal-less net has no extent and reports 0.
func (n *Net) HalfPerimeter() int {
	b, err := n.BBox()
	if err != nil {
		return 0
	}
	return b.Width() + b.Height()
}

// Netlist is an ordered collection of nets.
type Netlist struct {
	nets []*Net
}

// New returns an empty netlist.
func New() *Netlist { return &Netlist{} }

// Add appends a net built from the given terminals and returns it.
// The net's ID is assigned by the netlist.
func (nl *Netlist) Add(name string, class Class, terms ...Terminal) *Net {
	n := &Net{
		ID:        NetID(len(nl.nets)),
		Name:      name,
		Class:     class,
		Terminals: terms,
	}
	nl.nets = append(nl.nets, n)
	return n
}

// AddPoints is a convenience wrapper over Add for terminals that carry
// no provenance names.
func (nl *Netlist) AddPoints(name string, class Class, pts ...geom.Point) *Net {
	terms := make([]Terminal, len(pts))
	for i, p := range pts {
		terms[i] = Terminal{Pos: p}
	}
	return nl.Add(name, class, terms...)
}

// Len returns the number of nets.
func (nl *Netlist) Len() int { return len(nl.nets) }

// Net returns the net with the given ID, or nil when out of range.
func (nl *Netlist) Net(id NetID) *Net {
	if id < 0 || int(id) >= len(nl.nets) {
		return nil
	}
	return nl.nets[id]
}

// Nets returns the nets in ID order. The returned slice is shared;
// callers must not reorder it.
func (nl *Netlist) Nets() []*Net { return nl.nets }

// Validate checks structural soundness: every net has at least two
// terminals and no net has two terminals at the same position.
// Violations return an error matching robust.ErrInvalidInput, so API
// boundaries can distinguish malformed requests from routing failures.
func (nl *Netlist) Validate() error {
	for _, n := range nl.nets {
		if len(n.Terminals) < 2 {
			return robust.Invalidf("netlist: net %q (#%d) has %d terminal(s); need at least 2",
				n.Name, n.ID, len(n.Terminals))
		}
		seen := make(map[geom.Point]bool, len(n.Terminals))
		for _, t := range n.Terminals {
			if seen[t.Pos] {
				return robust.Invalidf("netlist: net %q (#%d) has duplicate terminal at %v",
					n.Name, n.ID, t.Pos)
			}
			seen[t.Pos] = true
		}
	}
	return nil
}

// Stats summarises a net set for reporting (Table 1 of the paper).
type Stats struct {
	Nets        int
	Pins        int
	AvgPins     float64
	MaxPins     int
	TwoTerminal int
}

// ComputeStats returns summary statistics for the given nets.
func ComputeStats(nets []*Net) Stats {
	s := Stats{Nets: len(nets)}
	for _, n := range nets {
		s.Pins += n.Pins()
		if n.Pins() > s.MaxPins {
			s.MaxPins = n.Pins()
		}
		if n.Pins() == 2 {
			s.TwoTerminal++
		}
	}
	if s.Nets > 0 {
		s.AvgPins = float64(s.Pins) / float64(s.Nets)
	}
	return s
}

// SortByHalfPerimeter sorts nets in place by descending half-perimeter
// (the paper's "longest distance criterion"), breaking ties by ID for
// determinism.
func SortByHalfPerimeter(nets []*Net) {
	sort.SliceStable(nets, func(i, j int) bool {
		hi, hj := nets[i].HalfPerimeter(), nets[j].HalfPerimeter()
		if hi != hj {
			return hi > hj
		}
		return nets[i].ID < nets[j].ID
	})
}
