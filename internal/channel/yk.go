package channel

import (
	"cmp"
	"fmt"
	"slices"

	"overcell/internal/geom"
)

// NetMerge routes the channel with the net-merging method of Yoshimura
// and Kuh ("Efficient algorithms for channel routing", IEEE TCAD 1982)
// — the algorithm the paper's three-layer reference [1] builds on.
// Nets are processed in left-edge order; a net whose span begins after
// another group's span has ended may merge into that group (sharing
// its track) provided neither reaches the other in the vertical
// constraint graph; the merge chosen minimises the longest resulting
// constraint chain, which bounds the track count, the least group
// winning a tie. Tracks are the final merged groups, ordered by a
// topological sort of the merged constraint graph.
//
// A merge of two groups that cannot reach each other neither makes nor
// breaks a cycle, so NetMerge refuses cyclic vertical constraints, as
// LeftEdge does, before it merges anything. Each net keeps one row of
// bits for its successors and one for the nets it reaches, closed
// transitively as groups merge, so a candidate's test and score cost
// O(1); the chain lengths take one pass over a topological order per
// merge.
func NetMerge(p *Problem) (*Solution, error) {
	w, err := wholeNetsOf(p)
	if err != nil {
		return nil, err
	}
	items := w.items
	n := len(items)
	// Nets are named by item. succ[i] holds the items that item i's
	// constraints put directly below it; a group's row is the union of
	// its members' rows.
	succ := bitRows(n)
	for _, e := range w.edges {
		succ[e[0]].Set(e[1])
	}
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	order := kahn(all, succ)
	if len(order) < n {
		return nil, fmt.Errorf("channel: cyclic vertical constraints (net merging left %d nets unplaced)",
			n-len(order))
	}
	// reach[g] holds the members of group g and of every group below
	// it.
	reach := bitRows(n)
	for k := n - 1; k >= 0; k-- {
		a := order[k]
		reach[a].Set(a)
		for b := succ[a].NextSet(0, n-1); b < n; b = succ[a].NextSet(b+1, n-1) {
			reach[a].Or(reach[b])
		}
	}

	// group names each item's group by its first member. A net joins a
	// group only when it is processed, as the group's newest member, so
	// no chain of links forms. hi is each group's rightmost column.
	group, hi := make([]int, n), make([]int, n)
	for i, it := range items {
		group[i], hi[i] = i, it.hi
	}
	// above[g] and below[g] are the longest constraint chains ending
	// and starting at group g. A group reaches more items than any
	// group below it, so sorting the groups by reach orders them from
	// the top.
	above, below, size := make([]int, n), make([]int, n), make([]int, n)
	groups := make([]int, 0, n)
	chains := func() {
		groups = groups[:0]
		for g := range n {
			if group[g] == g {
				groups = append(groups, g)
				size[g], above[g] = reach[g].Count(0, n-1), 0
			}
		}
		slices.SortFunc(groups, func(a, b int) int { return cmp.Compare(size[b], size[a]) })
		for _, g := range groups {
			for s := succ[g].NextSet(0, n-1); s < n; s = succ[g].NextSet(s+1, n-1) {
				above[group[s]] = max(above[group[s]], above[g]+1)
			}
		}
		for k := len(groups) - 1; k >= 0; k-- {
			g := groups[k]
			below[g] = 0
			for s := succ[g].NextSet(0, n-1); s < n; s = succ[g].NextSet(s+1, n-1) {
				below[g] = max(below[g], below[group[s]]+1)
			}
		}
	}
	chains()
	slices.SortFunc(all, func(a, b int) int {
		if c := cmp.Compare(items[a].lo, items[b].lo); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	for _, r := range all {
		// Candidates are the groups whose span ended before r starts
		// (which leaves out r itself) and that neither reach r nor are
		// reached from it. Merging g and r makes a group whose chain is
		// max(above(g)+below(r), above(r)+below(g)).
		best, bestScore := -1, 0
		for g := range n {
			if group[g] != g || hi[g] >= items[r].lo || reach[g].Has(r) || reach[r].Has(g) {
				continue
			}
			if score := max(above[g]+below[r], above[r]+below[g]); best < 0 || score < bestScore {
				best, bestScore = g, score
			}
		}
		if best < 0 {
			continue
		}
		group[r], hi[best] = best, max(hi[best], hi[r])
		succ[best].Or(succ[r])
		reach[best].Or(reach[r])
		for g := range n {
			if group[g] == g && g != best && (reach[g].Has(best) || reach[g].Has(r)) {
				reach[g].Or(reach[best])
			}
		}
		chains()
	}

	// Tracks follow the groups in Kahn's order, the reach rows now
	// holding each group's successor groups.
	groups = groups[:0]
	for g := range n {
		if group[g] == g {
			groups = append(groups, g)
			clear(reach[g])
			for s := succ[g].NextSet(0, n-1); s < n; s = succ[g].NextSet(s+1, n-1) {
				reach[g].Set(group[s])
			}
		}
	}
	trackOf := make([]int, n)
	for t, g := range kahn(groups, reach) {
		trackOf[g] = t
	}
	for i := range trackOf {
		trackOf[i] = trackOf[group[i]]
	}
	return w.solution(p, "net-merge", trackOf, len(groups)), nil
}

// kahn returns nodes in Kahn's topological order of the graph whose
// node a has the successors in succ[a]: first the nodes without a
// predecessor, in the order given, then each node's successors,
// ascending, as their last predecessor is placed. Nodes on or below a
// cycle are left out.
func kahn(nodes []int, succ []geom.Bits) []int {
	n := len(succ)
	indeg := make([]int, n)
	for _, a := range nodes {
		for b := succ[a].NextSet(0, n-1); b < n; b = succ[a].NextSet(b+1, n-1) {
			indeg[b]++
		}
	}
	order := make([]int, 0, len(nodes))
	for _, a := range nodes {
		if indeg[a] == 0 {
			order = append(order, a)
		}
	}
	for k := 0; k < len(order); k++ {
		a := order[k]
		for b := succ[a].NextSet(0, n-1); b < n; b = succ[a].NextSet(b+1, n-1) {
			if indeg[b]--; indeg[b] == 0 {
				order = append(order, b)
			}
		}
	}
	return order
}

// bitRows returns n empty sets of the integers below n, one array
// behind them all.
func bitRows(n int) []geom.Bits {
	w := geom.BitsWords(n)
	words := make(geom.Bits, n*w)
	rows := make([]geom.Bits, n)
	for i := range rows {
		rows[i] = words[i*w : (i+1)*w : (i+1)*w]
	}
	return rows
}
