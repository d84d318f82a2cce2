package verify_test

import (
	"testing"

	"overcell/internal/verify"
)

// maxLevelBAllocs bounds the allocations of one LevelB call on a clean
// result. The checks allocate a fixed handful of flat slices, however
// many nets and wire points the result holds.
const maxLevelBAllocs = 32

// pinned returns the clean routed results the allocation guard and the
// benchmark run on: proposed/ami33 and channelfree/ex3.
func pinned(tb testing.TB) []routedCase {
	return corpusBases(tb)[:2]
}

func TestLevelBAllocs(t *testing.T) {
	for _, rc := range pinned(t) {
		allocs := testing.AllocsPerRun(10, func() {
			if err := verify.LevelB(rc.res, rc.regions); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %d routes, %.0f allocs per LevelB", rc.name, len(rc.res.Routes), allocs)
		if allocs > maxLevelBAllocs {
			t.Errorf("%s: LevelB made %.0f allocs per call, want at most %d", rc.name, allocs, maxLevelBAllocs)
		}
	}
}

func BenchmarkLevelB(b *testing.B) {
	for _, rc := range pinned(b) {
		b.Run(rc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := verify.LevelB(rc.res, rc.regions); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
