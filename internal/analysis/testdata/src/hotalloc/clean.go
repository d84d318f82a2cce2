package hotalloc

import "overcell/internal/analysis/testdata/src/hotalloc/helper"

// wave is the disciplined hot loop: a fixed-size move array, a
// preallocated output, value composites only.
//
//oc:hotpath
func wave(pts []point) []point {
	out := make([]point, 0, 2*len(pts))
	for _, p := range pts {
		moves := [2]point{{p.x + 1, p.y}, {p.x, p.y + 1}}
		for _, m := range moves {
			out = append(out, m)
		}
	}
	return out
}

// total calls an allocation-free helper across the package boundary.
//
//oc:hotpath
func total(xs []int) int {
	return helper.Sum(xs)
}

// cold is unannotated: it may allocate freely, and its fact only
// matters if hot code ever calls it.
func cold(pts []point) []point {
	var out []point
	for _, p := range pts {
		out = append(out, point{p.y, p.x})
	}
	return out
}

// firstOf is generic: its argument is passed at a type parameter.
func firstOf[S ~[]E, E any](s S) E { return s[0] }

// heads passes a concrete slice at a type parameter per iteration,
// which boxes nothing.
//
//oc:hotpath
func heads(rows [][]point) int {
	n := 0
	for _, r := range rows {
		n += firstOf(r).x
	}
	return n
}
