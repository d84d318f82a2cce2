package geom

import "fmt"

// Interval is a closed integer interval [Lo, Hi]. An Interval with
// Lo > Hi is empty.
type Interval struct {
	Lo, Hi int
}

// Iv is shorthand for Interval{lo, hi}.
func Iv(lo, hi int) Interval { return Interval{lo, hi} }

// Empty reports whether the interval contains no integers.
func (iv Interval) Empty() bool { return iv.Lo > iv.Hi }

// Len returns the number of integers in the interval (0 when empty).
func (iv Interval) Len() int {
	if iv.Empty() {
		return 0
	}
	return iv.Hi - iv.Lo + 1
}

// Contains reports whether x lies in the interval.
func (iv Interval) Contains(x int) bool { return x >= iv.Lo && x <= iv.Hi }

// Overlaps reports whether the two closed intervals share an integer.
func (iv Interval) Overlaps(o Interval) bool {
	return !iv.Empty() && !o.Empty() && iv.Lo <= o.Hi && o.Lo <= iv.Hi
}

// Intersect returns the common sub-interval (possibly empty).
func (iv Interval) Intersect(o Interval) Interval {
	return Interval{Max(iv.Lo, o.Lo), Min(iv.Hi, o.Hi)}
}

// String implements fmt.Stringer.
func (iv Interval) String() string { return fmt.Sprintf("[%d,%d]", iv.Lo, iv.Hi) }
