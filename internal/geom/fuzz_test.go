package geom

import "testing"

// FuzzIntervalSet drives the interval set with an op-code string and
// cross-checks every outcome against a dense boolean model. Run deep
// fuzzing with:
//
//	go test -fuzz=FuzzIntervalSet ./internal/geom
func FuzzIntervalSet(f *testing.F) {
	f.Add([]byte{0x12, 0x34, 0x96, 0x01})
	f.Add([]byte{0xff, 0x00, 0x80, 0x7f, 0x33})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, ops []byte) {
		const n = 64
		var s IntervalSet
		var ref [n]bool
		for i := 0; i+1 < len(ops); i += 2 {
			lo := int(ops[i]) % n
			hi := lo + int(ops[i+1]%8)
			if hi >= n {
				hi = n - 1
			}
			iv := Iv(lo, hi)
			if ops[i]&0x80 != 0 {
				s.Remove(iv)
				for x := lo; x <= hi; x++ {
					ref[x] = false
				}
			} else {
				s.Add(iv)
				for x := lo; x <= hi; x++ {
					ref[x] = true
				}
			}
		}
		count := 0
		for x := 0; x < n; x++ {
			if ref[x] {
				count++
			}
			if s.Contains(x) != ref[x] {
				t.Fatalf("Contains(%d) = %v, model %v (%s)", x, s.Contains(x), ref[x], s.String())
			}
		}
		if s.Count() != count {
			t.Fatalf("Count = %d, model %d", s.Count(), count)
		}
		// Normalisation invariant.
		ivs := s.Intervals()
		for i := 1; i < len(ivs); i++ {
			if ivs[i].Lo <= ivs[i-1].Hi+1 {
				t.Fatalf("not normalised: %s", s.String())
			}
		}
		// ClearSpanAround at every x, one step past each end included,
		// under the whole model range and a window the input picks.
		window := Iv(n/4, 3*n/4)
		if len(ops) >= 2 {
			lo := int(ops[len(ops)-2]) % n
			window = Iv(lo, Min(n-1, lo+int(ops[len(ops)-1])%n))
		}
		for _, bounds := range []Interval{Iv(0, n-1), window} {
			for x := -1; x <= n; x++ {
				got, ok := s.ClearSpanAround(x, bounds)
				want, wantOK := denseClearSpan(ref[:], x, bounds)
				if ok != wantOK || got != want {
					t.Fatalf("ClearSpanAround(%d, %v) = %v,%v, model %v,%v (%s)",
						x, bounds, got, ok, want, wantOK, s.String())
				}
			}
		}
	})
}

// denseClearSpan is ClearSpanAround on the boolean model: the run of
// clear integers around x, walked outward one at a time and stopped at
// the bounds.
func denseClearSpan(ref []bool, x int, bounds Interval) (Interval, bool) {
	in := func(y int) bool { return y >= 0 && y < len(ref) && ref[y] }
	if !bounds.Contains(x) || in(x) {
		return Interval{}, false
	}
	lo, hi := x, x
	for lo > bounds.Lo && !in(lo-1) {
		lo--
	}
	for hi < bounds.Hi && !in(hi+1) {
		hi++
	}
	return Interval{lo, hi}, true
}
