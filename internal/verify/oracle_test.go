package verify

import (
	"fmt"

	"overcell/internal/core"
	"overcell/internal/netlist"
	"overcell/internal/tig"
)

// The oracle is the point-map implementation of verify's checks that
// the flat, interval-based one replaced, kept unchanged apart from its
// names. It puts every grid point a net's metal covers into a map,
// which makes it slow but plainly right; the differential tests in
// diff_test.go require the production checks to return byte-identical
// errors on every input.

// OracleConflicts checks the inter-net design rules over a level B result:
// no two nets may occupy the same (grid point, layer); vias and
// terminal stacks occupy both layers at their point. Failed nets'
// partial geometry participates: it is committed metal.
func OracleConflicts(res *core.Result) error {
	type claim struct {
		id   netlist.NetID
		name string
	}
	layerH := map[tig.Point]claim{}
	layerV := map[tig.Point]claim{}
	occupy := func(m map[tig.Point]claim, p tig.Point, c claim, what string) error {
		if prev, ok := m[p]; ok && prev.id != c.id {
			return fmt.Errorf("verify: %s conflict at %v between %q and %q", what, p, prev.name, c.name)
		}
		m[p] = c
		return nil
	}
	for _, nr := range res.Routes {
		c := claim{nr.Net.ID, nr.Net.Name}
		for _, s := range nr.Segments {
			for k := s.Lo; k <= s.Hi; k++ {
				p := tig.Point{Col: k, Row: s.Track}
				m := layerH
				if !s.Horizontal {
					p = tig.Point{Col: s.Track, Row: k}
					m = layerV
				}
				if err := occupy(m, p, c, "wire"); err != nil {
					return err
				}
			}
		}
		for _, v := range nr.Vias {
			if err := occupy(layerH, v, c, "via"); err != nil {
				return err
			}
			if err := occupy(layerV, v, c, "via"); err != nil {
				return err
			}
		}
		for _, p := range nr.Terminals {
			if err := occupy(layerH, p, c, "terminal"); err != nil {
				return err
			}
			if err := occupy(layerV, p, c, "terminal"); err != nil {
				return err
			}
		}
	}
	return nil
}

// OracleConnectivity checks that every successfully routed net electrically
// links all its terminals. Connectivity is layer-aware: wire points
// connect along their own layer; vias and terminal stacks bridge the
// layers at their point; perpendicular same-net crossings without a
// via do NOT connect.
func OracleConnectivity(res *core.Result) error {
	for _, nr := range res.Routes {
		if nr.Err != nil {
			continue
		}
		if err := oracleNetConnected(nr); err != nil {
			return err
		}
	}
	return nil
}

func oracleNetConnected(nr *core.NetRoute) error {
	if len(nr.Terminals) < 2 {
		return nil
	}
	type node struct {
		p     tig.Point
		layer int
	}
	owner := map[node]int{}
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
	add := func(nd node, comp int) {
		if prev, ok := owner[nd]; ok {
			union(prev, comp)
		} else {
			owner[nd] = comp
		}
	}
	fresh := func() int {
		parent = append(parent, len(parent))
		return len(parent) - 1
	}
	for _, s := range nr.Segments {
		comp := fresh()
		layer := 1
		if s.Horizontal {
			layer = 0
		}
		for k := s.Lo; k <= s.Hi; k++ {
			p := tig.Point{Col: k, Row: s.Track}
			if !s.Horizontal {
				p = tig.Point{Col: s.Track, Row: k}
			}
			add(node{p, layer}, comp)
		}
	}
	bridge := func(p tig.Point) {
		comp := fresh()
		add(node{p, 0}, comp)
		add(node{p, 1}, comp)
	}
	for _, v := range nr.Vias {
		bridge(v)
	}
	for _, p := range nr.Terminals {
		bridge(p)
	}
	root := -1
	for _, p := range nr.Terminals {
		comp := find(owner[node{p, 0}])
		if root == -1 {
			root = comp
		} else if comp != root {
			return fmt.Errorf("verify: net %q terminal %v electrically disconnected", nr.Net.Name, p)
		}
	}
	return nil
}

// OracleAvoidsRegions checks that no net metal enters a forbidden region on
// a blocked layer. Vias count on both layers; terminals are not checked.
func OracleAvoidsRegions(res *core.Result, regions []Region) error {
	inside := func(r Region, p tig.Point) bool {
		return r.Cols.Contains(p.Col) && r.Rows.Contains(p.Row)
	}
	for _, nr := range res.Routes {
		for _, s := range nr.Segments {
			for k := s.Lo; k <= s.Hi; k++ {
				p := tig.Point{Col: k, Row: s.Track}
				if !s.Horizontal {
					p = tig.Point{Col: s.Track, Row: k}
				}
				for _, r := range regions {
					if inside(r, p) && (s.Horizontal && r.BlocksH || !s.Horizontal && r.BlocksV) {
						return fmt.Errorf("verify: net %q wire enters exclusion region at %v", nr.Net.Name, p)
					}
				}
			}
		}
		for _, v := range nr.Vias {
			for _, r := range regions {
				if inside(r, v) && (r.BlocksH || r.BlocksV) {
					return fmt.Errorf("verify: net %q via inside exclusion region at %v", nr.Net.Name, v)
				}
			}
		}
	}
	return nil
}
