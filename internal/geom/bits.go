package geom

import "math/bits"

// Bits is a set of non-negative integers, one bit per integer in
// 64-bit words: i is bit i%64 of word i/64. It is the occupancy
// primitive of the router: one bit per track point per grid overlay,
// and one bit per track in the MBFS visit rule. Integers outside the
// words are never members, so every query treats them as clear and
// may be asked about any integer; Set, SetRange and ClearRange take
// integers within the words only.
type Bits []uint64

// BitsWords returns the number of words that hold n bits.
func BitsWords(n int) int { return (n + 63) >> 6 }

// Reset returns the set resized to hold n bits, all clear, reusing
// b's backing when it is large enough.
func (b Bits) Reset(n int) Bits {
	w := BitsWords(n)
	if cap(b) < w {
		return make(Bits, w)
	}
	b = b[:w]
	clear(b)
	return b
}

// Set adds i.
func (b Bits) Set(i int) { b[i>>6] |= 1 << (i & 63) }

// Has reports whether i is in the set.
func (b Bits) Has(i int) bool {
	w := uint(i) >> 6
	return w < uint(len(b)) && b[w]&(1<<(uint(i)&63)) != 0
}

// Or adds every member of c, which must have no more words than b.
func (b Bits) Or(c Bits) {
	for i, w := range c {
		b[i] |= w
	}
}

// SetRange adds every integer of [lo, hi]; it does nothing when
// lo > hi.
func (b Bits) SetRange(lo, hi int) {
	if lo > hi {
		return
	}
	first, last := lo>>6, hi>>6
	loMask, hiMask := ^uint64(0)<<(lo&63), ^uint64(0)>>(63-hi&63)
	if first == last {
		b[first] |= loMask & hiMask
		return
	}
	b[first] |= loMask
	for i := first + 1; i < last; i++ {
		b[i] = ^uint64(0)
	}
	b[last] |= hiMask
}

// ClearRange removes every integer of [lo, hi]; it does nothing when
// lo > hi.
func (b Bits) ClearRange(lo, hi int) {
	if lo > hi {
		return
	}
	first, last := lo>>6, hi>>6
	loMask, hiMask := ^uint64(0)<<(lo&63), ^uint64(0)>>(63-hi&63)
	if first == last {
		b[first] &^= loMask & hiMask
		return
	}
	b[first] &^= loMask
	clear(b[first+1 : last])
	b[last] &^= hiMask
}

// Count returns the number of members in [lo, hi].
//
//oc:hotpath
func (b Bits) Count(lo, hi int) int { return b.CountEach(len(b), lo, hi) }

// CountEach treats b as consecutive sets of w words each, such as the
// rows of a bit matrix, and returns the number of members in [lo, hi]
// summed over all of them: one masked popcount per set when the range
// lies within a word.
//
//oc:hotpath
func (b Bits) CountEach(w, lo, hi int) int {
	lo, hi = Max(lo, 0), Min(hi, w<<6-1)
	if lo > hi {
		return 0
	}
	first, last := lo>>6, hi>>6
	loMask, hiMask := ^uint64(0)<<(lo&63), ^uint64(0)>>(63-hi&63)
	n := 0
	for s := 0; s+w <= len(b); s += w {
		if first == last {
			n += bits.OnesCount64(b[s+first] & loMask & hiMask)
			continue
		}
		n += bits.OnesCount64(b[s+first]&loMask) + bits.OnesCount64(b[s+last]&hiMask)
		for _, x := range b[s+first+1 : s+last] {
			n += bits.OnesCount64(x)
		}
	}
	return n
}

// NextClear returns the least integer in [q, hi] that is not a
// member, or a value above hi when there is none. It tests a word at a
// time.
//
//oc:hotpath
func (b Bits) NextClear(q, hi int) int {
	for q <= hi {
		w := uint(q) >> 6
		if w >= uint(len(b)) {
			return q
		}
		if m := ^b[w] >> (q & 63); m != 0 {
			return q + bits.TrailingZeros64(m)
		}
		q = (q | 63) + 1
	}
	return q
}

// NextSet returns the least member in [q, hi], or hi+1 when there is
// none.
func (b Bits) NextSet(q, hi int) int {
	for q, end := Max(q, 0), Min(hi, len(b)<<6-1); q <= end; q = (q | 63) + 1 {
		if m := b[q>>6] >> (q & 63); m != 0 {
			return Min(q+bits.TrailingZeros64(m), hi+1)
		}
	}
	return hi + 1
}

// PrevSet returns the greatest member in [lo, q], or lo-1 when there
// is none.
func (b Bits) PrevSet(q, lo int) int {
	for q, end := Min(q, len(b)<<6-1), Max(lo, 0); q >= end; q = q&^63 - 1 {
		if m := b[q>>6] << (63 - q&63); m != 0 {
			return Max(q-bits.LeadingZeros64(m), lo-1)
		}
	}
	return lo - 1
}

// ClearSpanAround returns the maximal run of non-members that contains
// x, clipped to bounds. The second result is false when x is a member
// or lies outside bounds.
func (b Bits) ClearSpanAround(x int, bounds Interval) (Interval, bool) {
	if !bounds.Contains(x) || b.Has(x) {
		return Interval{}, false
	}
	return Interval{b.PrevSet(x-1, bounds.Lo) + 1, b.NextSet(x+1, bounds.Hi) - 1}, true
}
