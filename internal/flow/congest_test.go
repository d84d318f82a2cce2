package flow

import (
	"testing"

	"overcell/internal/gen"
	"overcell/internal/obs/congest"
)

// TestCongestionSeriesShape sanity-checks the report contents on one
// run: monotone rank coverage, utilisation within [0,10000], and a
// frame per sample matching the tiling.
func TestCongestionSeriesShape(t *testing.T) {
	inst, err := gen.Ami33Like()
	if err != nil {
		t.Fatal(err)
	}
	series := congest.New(0, 0)
	res, err := Proposed(inst, Options{Congest: series})
	if err != nil {
		t.Fatal(err)
	}
	rep := series.Report(true)
	if len(rep.Samples) < len(res.LevelB.Routes) {
		t.Fatalf("series has %d samples for %d level B nets", len(rep.Samples), len(res.LevelB.Routes))
	}
	if len(rep.Frames) != len(rep.Samples) {
		t.Fatalf("%d frames for %d samples", len(rep.Frames), len(rep.Samples))
	}
	for i, sm := range rep.Samples {
		if sm.Rank < 1 || sm.Rank > len(res.LevelB.Routes) {
			t.Fatalf("sample %d rank %d outside 1..%d", i, sm.Rank, len(res.LevelB.Routes))
		}
		if sm.Net == "" {
			t.Fatalf("sample %d has no net name", i)
		}
		for _, bp := range []int{sm.UtilHBP, sm.UtilVBP, sm.PeakBP} {
			if bp < 0 || bp > 10000 {
				t.Fatalf("sample %d basis points out of range: %+v", i, sm)
			}
		}
		if len(rep.Frames[i]) != rep.Cols*rep.Rows {
			t.Fatalf("frame %d has %d tiles, want %d", i, len(rep.Frames[i]), rep.Cols*rep.Rows)
		}
	}
	// Utilisation never decreases across the first pass (commits only
	// add metal); rip-up retries may dip, so only check until the first
	// repeated rank.
	seen := map[int]bool{}
	prev := -1
	for _, sm := range rep.Samples {
		if seen[sm.Rank] {
			break
		}
		seen[sm.Rank] = true
		if sm.UtilHBP+sm.UtilVBP < prev {
			t.Fatalf("first-pass utilisation decreased: %d -> %d", prev, sm.UtilHBP+sm.UtilVBP)
		}
		prev = sm.UtilHBP + sm.UtilVBP
	}
}
