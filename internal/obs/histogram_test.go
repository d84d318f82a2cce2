package obs

import (
	"math"
	"strings"
	"testing"
)

// TestHistogramEdges pins the bucket assignment on the boundary
// values: zero, exact powers of two, and the extreme int64 range.
func TestHistogramEdges(t *testing.T) {
	var h Histogram
	h.Observe(0)
	if h.Buckets[0] != 1 {
		t.Errorf("Observe(0) bucket0 = %d, want 1", h.Buckets[0])
	}
	// Exact powers of two open the next bucket: 2^k lands in bucket
	// k+1, whose range is [2^k, 2^(k+1)-1].
	for _, k := range []uint{0, 1, 4, 10, 20} {
		var p Histogram
		p.Observe(int64(1) << k)
		want := int(k) + 1
		for i, c := range p.Buckets {
			if c != 0 && i != want {
				t.Errorf("Observe(2^%d) filled bucket %d, want %d", k, i, want)
			}
		}
		// One below the power stays in bucket k (for k >= 1).
		if k >= 1 {
			var q Histogram
			q.Observe(int64(1)<<k - 1)
			if q.Buckets[k] != 1 {
				t.Errorf("Observe(2^%d-1) bucket%d = %d, want 1", k, k, q.Buckets[k])
			}
		}
	}
	// Values past the bucket range clamp into the open-ended last
	// bucket instead of indexing out of bounds.
	var m Histogram
	m.Observe(math.MaxInt64)
	m.Observe(int64(1) << 40)
	last := len(m.Buckets) - 1
	if m.Buckets[last] != 2 {
		t.Errorf("extreme observations: bucket%d = %d, want 2", last, m.Buckets[last])
	}
	if m.Max != math.MaxInt64 || m.N != 2 {
		t.Errorf("n=%d max=%d", m.N, m.Max)
	}
	if !strings.Contains(m.String(), "-inf]:2") {
		t.Errorf("last bucket not rendered open-ended: %s", m.String())
	}
}
