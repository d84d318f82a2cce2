package geom

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// bitsModel is a dense boolean model of a Bits of n bits.
type bitsModel []bool

func (m bitsModel) in(x int) bool { return x >= 0 && x < len(m) && m[x] }

func (m bitsModel) apply(on bool, lo, hi int) {
	for x := lo; x <= hi; x++ {
		m[x] = on
	}
}

func (m bitsModel) count(lo, hi int) int {
	n := 0
	for x := lo; x <= hi; x++ {
		if m.in(x) {
			n++
		}
	}
	return n
}

// next returns the least y in [q, hi] with in(y) == on, or hi+1.
func (m bitsModel) next(q, hi int, on bool) int {
	for y := q; y <= hi; y++ {
		if m.in(y) == on {
			return y
		}
	}
	return hi + 1
}

// prev returns the greatest y in [lo, q] that is a member, or lo-1.
func (m bitsModel) prev(q, lo int) int {
	for y := q; y >= lo; y-- {
		if m.in(y) {
			return y
		}
	}
	return lo - 1
}

// clearSpan is ClearSpanAround on the model: the run of non-members
// around x, walked outward one at a time and stopped at the bounds.
func (m bitsModel) clearSpan(x int, bounds Interval) (Interval, bool) {
	if !bounds.Contains(x) || m.in(x) {
		return Interval{}, false
	}
	lo, hi := x, x
	for lo > bounds.Lo && !m.in(lo-1) {
		lo--
	}
	for hi < bounds.Hi && !m.in(hi+1) {
		hi++
	}
	return Interval{lo, hi}, true
}

// checkBits compares every query of b with the model at every x in
// [-1, n], under the full range [0, n-1] and under window.
func checkBits(t *testing.T, b Bits, m bitsModel, window Interval) {
	t.Helper()
	n := len(m)
	if got, want := b.Count(-1, n), m.count(0, n-1); got != want {
		t.Fatalf("n=%d: Count(all) = %d, model %d", n, got, want)
	}
	for _, bounds := range []Interval{Iv(0, n-1), window} {
		for x := -1; x <= n; x++ {
			if got := b.Has(x); got != m.in(x) {
				t.Fatalf("n=%d: Has(%d) = %v, model %v", n, x, got, m.in(x))
			}
			if got, want := b.Count(bounds.Lo, x), m.count(bounds.Lo, x); got != want {
				t.Fatalf("n=%d: Count(%d, %d) = %d, model %d", n, bounds.Lo, x, got, want)
			}
			if got, want := b.Count(x, bounds.Hi), m.count(x, bounds.Hi); got != want {
				t.Fatalf("n=%d: Count(%d, %d) = %d, model %d", n, x, bounds.Hi, got, want)
			}
			// Each word as a set of its own: bits lo..hi of every word.
			each := 0
			for k := 0; k < len(b); k++ {
				if lo, hi := Max(bounds.Lo, 0), Min(x, 63); lo <= hi {
					each += m.count(64*k+lo, 64*k+hi)
				}
			}
			if got := b.CountEach(1, bounds.Lo, x); got != each {
				t.Fatalf("n=%d: CountEach(1, %d, %d) = %d, model %d", n, bounds.Lo, x, got, each)
			}
			// NextClear only promises a value above hi when there is none.
			if got, want := b.NextClear(x, bounds.Hi), m.next(x, bounds.Hi, false); got != want && !(got > bounds.Hi && want > bounds.Hi) {
				t.Fatalf("n=%d: NextClear(%d, %d) = %d, model %d", n, x, bounds.Hi, got, want)
			}
			if got, want := b.NextSet(x, bounds.Hi), m.next(x, bounds.Hi, true); got != want {
				t.Fatalf("n=%d: NextSet(%d, %d) = %d, model %d", n, x, bounds.Hi, got, want)
			}
			if got, want := b.PrevSet(x, bounds.Lo), m.prev(x, bounds.Lo); got != want {
				t.Fatalf("n=%d: PrevSet(%d, %d) = %d, model %d", n, x, bounds.Lo, got, want)
			}
			got, ok := b.ClearSpanAround(x, bounds)
			want, wantOK := m.clearSpan(x, bounds)
			if ok != wantOK || got != want {
				t.Fatalf("n=%d: ClearSpanAround(%d, %v) = %v,%v, model %v,%v",
					n, x, bounds, got, ok, want, wantOK)
			}
		}
	}
}

// TestBitsMatchesModel drives random SetRange, ClearRange and Set
// sequences on sets 1 to 300 bits wide and checks every query against
// the dense model. Range ends are drawn mostly from the word edges
// (bits 0, 63 and 64 of a word) and long ranges cross three or more
// words.
func TestBitsMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	widths := []int{1, 2, 63, 64, 65, 127, 128, 129, 191, 192, 193, 255, 256, 257, 300}
	for k := 0; k < 10; k++ {
		widths = append(widths, 1+rng.Intn(300))
	}
	var b Bits
	for _, n := range widths {
		edges := []int{0, n - 1}
		for e := 63; e+1 < n; e += 64 {
			edges = append(edges, e, e+1)
		}
		pick := func() int {
			if rng.Intn(3) == 0 {
				return rng.Intn(n)
			}
			return edges[rng.Intn(len(edges))]
		}
		for trial := 0; trial < 8; trial++ {
			b = b.Reset(n)
			if len(b) != BitsWords(n) {
				t.Fatalf("n=%d: Reset gave %d words, want %d", n, len(b), BitsWords(n))
			}
			m := make(bitsModel, n)
			for op := 0; op < 24; op++ {
				lo, hi := pick(), pick()
				if lo > hi {
					lo, hi = hi, lo
				}
				switch rng.Intn(5) {
				case 0:
					b.ClearRange(lo, hi)
					m.apply(false, lo, hi)
				case 1:
					b.Set(lo)
					m.apply(true, lo, lo)
				case 2: // empty ranges: no-ops
					b.SetRange(hi+1, hi)
					b.ClearRange(lo+1, lo)
				default:
					b.SetRange(lo, hi)
					m.apply(true, lo, hi)
				}
			}
			lo := rng.Intn(n+4) - 2
			checkBits(t, b, m, Iv(lo, lo+rng.Intn(n+2)))
		}
	}
}

// TestBitsResetReuses checks that Reset clears the set and keeps its
// backing when it is large enough.
func TestBitsResetReuses(t *testing.T) {
	b := Bits(nil).Reset(200)
	b.SetRange(0, 199)
	c := b.Reset(130)
	if &c[0] != &b[0] || len(c) != 3 || c.Count(0, 1<<10) != 0 {
		t.Errorf("Reset(130) = %d words, %d members, same backing %v",
			len(c), c.Count(0, 1<<10), &c[0] == &b[0])
	}
	if d := c.Reset(300); len(d) != 5 || d.Count(0, 1<<10) != 0 {
		t.Errorf("Reset(300) = %d words, %d members", len(d), d.Count(0, 1<<10))
	}
}

// TestBitsOr checks Or against the union of two models, with the
// added set as wide as the receiver or narrower.
func TestBitsOr(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(300)
		m := 1 + rng.Intn(n)
		b, c := make(Bits, BitsWords(n)), make(Bits, BitsWords(m))
		want := make(bitsModel, n)
		for k := rng.Intn(n); k > 0; k-- {
			x := rng.Intn(n)
			b.Set(x)
			want[x] = true
		}
		for k := rng.Intn(m); k > 0; k-- {
			x := rng.Intn(m)
			c.Set(x)
			want[x] = true
		}
		b.Or(c)
		for x := -1; x <= n; x++ {
			if b.Has(x) != want.in(x) {
				t.Fatalf("trial %d: Or(%d bits into %d): Has(%d) = %v", trial, m, n, x, b.Has(x))
			}
		}
	}
}

// The TestIntervalSet tests check Bits used as a set of closed
// intervals, the way the grid's overlays use it: SetRange adds an
// interval, ClearRange removes one, and the maximal runs of members
// are the set's intervals, in order, disjoint and never adjacent.

// intervals returns the maximal runs of members of b in [0, n-1].
func intervals(b Bits, n int) []Interval {
	var out []Interval
	for x := b.NextSet(0, n-1); x < n; {
		end := Min(b.NextClear(x, n-1), n)
		out = append(out, Iv(x, end-1))
		x = b.NextSet(end, n-1)
	}
	return out
}

func equalIntervals(a, b []Interval) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestIntervalSetAddMerges(t *testing.T) {
	s := Bits(nil).Reset(16)
	s.SetRange(1, 3)
	s.SetRange(7, 9)
	s.SetRange(4, 6) // adjacent on both sides: everything merges
	if got := intervals(s, 16); !equalIntervals(got, []Interval{{1, 9}}) {
		t.Errorf("merged = %v, want [[1,9]]", got)
	}
}

func TestIntervalSetAddOverlap(t *testing.T) {
	s := Bits(nil).Reset(32)
	s.SetRange(10, 20)
	s.SetRange(15, 25)
	s.SetRange(5, 12)
	if got := intervals(s, 32); !equalIntervals(got, []Interval{{5, 25}}) {
		t.Errorf("got %v, want [[5,25]]", got)
	}
	if got := s.Count(0, 31); got != 21 {
		t.Errorf("Count = %d, want 21", got)
	}
}

func TestIntervalSetAddDisjoint(t *testing.T) {
	s := Bits(nil).Reset(16)
	s.SetRange(1, 2)
	s.SetRange(10, 12)
	s.SetRange(5, 7)
	want := []Interval{{1, 2}, {5, 7}, {10, 12}}
	if got := intervals(s, 16); !equalIntervals(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestIntervalSetRemoveSplits(t *testing.T) {
	s := Bits(nil).Reset(101)
	s.SetRange(0, 10)
	s.ClearRange(4, 6)
	if got, want := intervals(s, 101), []Interval{{0, 3}, {7, 10}}; !equalIntervals(got, want) {
		t.Errorf("after split remove: %v, want %v", got, want)
	}
	s.ClearRange(0, 100)
	if got := intervals(s, 101); len(got) != 0 {
		t.Errorf("expected empty, got %v", got)
	}
}

func TestIntervalSetRemoveEdges(t *testing.T) {
	s := Bits(nil).Reset(201)
	s.SetRange(5, 10)
	s.ClearRange(0, 5)
	if got := intervals(s, 201); !equalIntervals(got, []Interval{{6, 10}}) {
		t.Errorf("left trim: %v", got)
	}
	s.ClearRange(10, 20)
	if got := intervals(s, 201); !equalIntervals(got, []Interval{{6, 9}}) {
		t.Errorf("right trim: %v", got)
	}
	s.ClearRange(100, 200) // no-op
	if got := intervals(s, 201); !equalIntervals(got, []Interval{{6, 9}}) {
		t.Errorf("no-op remove changed set: %v", got)
	}
}

func TestIntervalSetContainsQueries(t *testing.T) {
	s := Bits(nil).Reset(16)
	s.SetRange(2, 4)
	s.SetRange(8, 9)
	if !s.Has(2) || !s.Has(4) || s.Has(5) || s.Has(1) {
		t.Error("Has wrong")
	}
	containsAll := func(lo, hi int) bool { return s.Count(lo, hi) == hi-lo+1 }
	if !containsAll(2, 4) || containsAll(2, 5) || containsAll(4, 8) {
		t.Error("Count over a whole interval wrong")
	}
	overlaps := func(lo, hi int) bool { return s.NextSet(lo, hi) <= hi }
	if !overlaps(4, 8) || overlaps(5, 7) || !overlaps(0, 2) {
		t.Error("NextSet as an overlap test wrong")
	}
	if got := s.Count(3, 8); got != 3 {
		t.Errorf("Count(3, 8) = %d, want 3 (3,4,8)", got)
	}
}

// TestIntervalSetAgainstModel drives random SetRange/ClearRange
// sequences over two and a bit words and checks membership, the count
// and the runs of members against the dense model.
func TestIntervalSetAgainstModel(t *testing.T) {
	const n = 130
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		s := Bits(nil).Reset(n)
		m := make(bitsModel, n)
		for op := 0; op < 30; op++ {
			lo := rng.Intn(n - 10)
			hi := Min(lo+rng.Intn(70), n-1)
			if rng.Intn(3) == 0 {
				s.ClearRange(lo, hi)
				m.apply(false, lo, hi)
			} else {
				s.SetRange(lo, hi)
				m.apply(true, lo, hi)
			}
		}
		for x := 0; x < n; x++ {
			if s.Has(x) != m[x] {
				t.Fatalf("trial %d: Has(%d) = %v, model %v", trial, x, s.Has(x), m[x])
			}
		}
		if got, want := s.Count(0, n-1), m.count(0, n-1); got != want {
			t.Fatalf("trial %d: Count = %d, model %d", trial, got, want)
		}
		// The runs cover exactly the members and are sorted, disjoint
		// and non-adjacent.
		ivs := intervals(s, n)
		covered := make(bitsModel, n)
		for i, iv := range ivs {
			if i > 0 && iv.Lo <= ivs[i-1].Hi+1 {
				t.Fatalf("trial %d: runs not normalised: %v", trial, ivs)
			}
			covered.apply(true, iv.Lo, iv.Hi)
		}
		for x := 0; x < n; x++ {
			if covered[x] != m[x] {
				t.Fatalf("trial %d: runs %v cover %d = %v, model %v", trial, ivs, x, covered[x], m[x])
			}
		}
	}
}

func TestClearSpanAround(t *testing.T) {
	b := Bits(nil).Reset(21)
	b.SetRange(2, 4)
	b.SetRange(10, 12)
	bounds := Iv(0, 20)

	if iv, ok := b.ClearSpanAround(7, bounds); !ok || iv != Iv(5, 9) {
		t.Errorf("ClearSpanAround(7) = %v,%v; want [5,9],true", iv, ok)
	}
	if iv, ok := b.ClearSpanAround(0, bounds); !ok || iv != Iv(0, 1) {
		t.Errorf("ClearSpanAround(0) = %v,%v; want [0,1],true", iv, ok)
	}
	if iv, ok := b.ClearSpanAround(15, bounds); !ok || iv != Iv(13, 20) {
		t.Errorf("ClearSpanAround(15) = %v,%v; want [13,20],true", iv, ok)
	}
	if _, ok := b.ClearSpanAround(3, bounds); ok {
		t.Error("ClearSpanAround on a member must fail")
	}
	if _, ok := b.ClearSpanAround(30, bounds); ok {
		t.Error("ClearSpanAround outside bounds must fail")
	}
	// Integers past the words are clear: the span runs on to the bounds.
	if iv, ok := b.ClearSpanAround(100, Iv(-50, 200)); !ok || iv != Iv(13, 200) {
		t.Errorf("ClearSpanAround(100) = %v,%v; want [13,200],true", iv, ok)
	}
	// Empty set: whole bounds clear.
	var e Bits
	if iv, ok := e.ClearSpanAround(5, bounds); !ok || iv != bounds {
		t.Errorf("empty-set ClearSpanAround = %v,%v", iv, ok)
	}
}

func TestOverlapCountProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := Bits(nil).Reset(200)
		m := make(bitsModel, 200)
		for op := 0; op < 20; op++ {
			lo := rng.Intn(180)
			hi := lo + rng.Intn(20)
			b.SetRange(lo, hi)
			m.apply(true, lo, hi)
		}
		qlo := rng.Intn(220) - 10
		qhi := qlo + rng.Intn(100)
		return b.Count(qlo, qhi) == m.count(qlo, qhi)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
