package channel

import (
	"fmt"
	"sort"
)

// NetMerge routes the channel with the net-merging method of Yoshimura
// and Kuh ("Efficient algorithms for channel routing", IEEE TCAD 1982)
// — the algorithm the paper's three-layer reference [1] builds on.
// Nets are processed in left-edge order; a net whose span begins after
// another group's span has ended may merge into that group (sharing
// its track) provided the merge keeps the vertical constraint graph
// acyclic; the merge chosen minimises the longest resulting constraint
// chain, which bounds the track count. Tracks are the final merged
// groups, ordered by a topological sort of the merged constraint
// graph. Like LeftEdge, it refuses cyclic vertical constraints.
func NetMerge(p *Problem) (*Solution, error) {
	netNums, pins, err := p.pinNets()
	if err != nil {
		return nil, err
	}
	spans := p.spans()
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
	for _, e := range p.VCGEdges() {
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
			for _, s := range sortedKeys(succ[cur]) {
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
	above := func(g int) int { return chain(g, map[int]int{}, false, succ, find) }
	below := func(g int) int { return chain(g, map[int]int{}, true, succ, find) }

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
			for _, s := range sortedKeys(succ[rr]) {
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
	for _, a := range sortedKeys(succ) {
		ar := find(a)
		for _, s := range sortedKeys(succ[a]) {
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
		for _, s := range sortedKeys(out[g]) {
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

// chain computes the longest directed chain starting (fwd) or ending
// (!fwd) at group g in the merged constraint graph. For the backward
// direction the graph is walked via an inverted view built on demand;
// graphs here are small (channel nets), so clarity wins over caching.
func chain(g int, memo map[int]int, fwd bool, succ map[int]map[int]bool, find func(int) int) int {
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
			if d := chain(sr, memo, fwd, succ, find) + 1; d > best {
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
				if d := chain(ar, memo, fwd, succ, find) + 1; d > best {
					best = d
				}
			}
		}
	}
	memo[g] = best
	return best
}

// sortedKeys returns m's keys in increasing order. The merged
// constraint graph is stored as map-of-sets; every walk over it ranges
// through this helper so traversal order — and therefore any tie-break
// the walk feeds — is deterministic by construction rather than by
// argument about commutativity.
func sortedKeys[V any](m map[int]V) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}
