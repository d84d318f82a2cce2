package obs

import (
	"fmt"
	"math/bits"
	"strings"
)

// Histogram is a power-of-two bucket histogram over non-negative
// integer observations (search expansions, BFS depths, path counts).
// Bucket i holds observations v with 2^(i-1) <= v < 2^i; bucket 0
// holds v == 0.
type Histogram struct {
	Buckets [32]int64
	N       int64
	Sum     int64
	Max     int64
}

// Observe records one value. Negative values clamp to zero; values at
// or beyond 2^30 land in the last bucket (its upper edge is open), so
// any int64 — including math.MaxInt64 — is a valid observation.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	i := bits.Len64(uint64(v))
	if i >= len(h.Buckets) {
		i = len(h.Buckets) - 1
	}
	h.Buckets[i]++
	h.N++
	h.Sum += v
	if v > h.Max {
		h.Max = v
	}
}

// Mean returns the arithmetic mean of the observations (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.N == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.N)
}

// String renders "n=N mean=M max=X" plus the non-empty buckets. The
// last bucket is open-ended (it absorbs every observation at or above
// its lower edge) and renders as [lo-inf].
func (h *Histogram) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "n=%d mean=%.1f max=%d", h.N, h.Mean(), h.Max)
	for i, c := range h.Buckets {
		if c == 0 {
			continue
		}
		lo, hi := int64(0), int64(0)
		if i > 0 {
			lo, hi = int64(1)<<(i-1), int64(1)<<i-1
		}
		if i == len(h.Buckets)-1 {
			fmt.Fprintf(&b, " [%d-inf]:%d", lo, c)
			continue
		}
		fmt.Fprintf(&b, " [%d-%d]:%d", lo, hi, c)
	}
	return b.String()
}
