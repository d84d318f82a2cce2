package global

import (
	"math/rand"
	"testing"

	"overcell/internal/floorplan"
	"overcell/internal/geom"
)

// refFeedthroughs is the scan-based slot search that feedthroughs
// replaced, kept as an oracle: take scans every slot of the row.
type refFeedthroughs struct {
	pitch int
	rows  [][]geom.Interval // free x-intervals per row
	used  []map[int]bool    // x positions taken per row
}

func newRefFeedthroughs(l *floorplan.Layout, pitch int) *refFeedthroughs {
	ft := &refFeedthroughs{pitch: pitch}
	for i := range l.Rows {
		ft.rows = append(ft.rows, l.Gaps(i))
		ft.used = append(ft.used, map[int]bool{})
	}
	return ft
}

func (ft *refFeedthroughs) take(r, want int) (int, bool) {
	best, bestD := 0, -1
	for _, gap := range ft.rows[r] {
		lo := (gap.Lo + ft.pitch - 1) / ft.pitch * ft.pitch
		for x := lo; x <= gap.Hi; x += ft.pitch {
			if ft.used[r][x] {
				continue
			}
			d := x - want
			if d < 0 {
				d = -d
			}
			if bestD < 0 || d < bestD {
				best, bestD = x, d
			}
		}
	}
	if bestD < 0 {
		return 0, false
	}
	ft.used[r][best] = true
	return best, true
}

// TestTakeMatchesScan holds take to the scan on random rows, with
// wants inside and beyond the layout, until the rows run out of slots.
func TestTakeMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 300; trial++ {
		l := floorplan.New(floorplan.DefaultTech(), rng.Intn(20))
		rows := 2 + rng.Intn(4)
		for i := 0; i < rows; i++ {
			r := l.AddRow(rng.Intn(40))
			for c := 1 + rng.Intn(6); c > 0; c-- {
				r.AddCell("c", 1+rng.Intn(120), 64)
			}
		}
		place(t, l)
		pitch := l.Tech.M12Pitch
		ft, ref := newFeedthroughs(l, pitch), newRefFeedthroughs(l, pitch)
		for k := 0; k < 120; k++ {
			r, want := rng.Intn(rows), rng.Intn(l.Width()+4*pitch)-2*pitch
			gx, gok := ft.take(r, want)
			wx, wok := ref.take(r, want)
			if gx != wx || gok != wok {
				t.Fatalf("trial %d take %d: row %d want %d: got (%d, %v), scan (%d, %v)",
					trial, k, r, want, gx, gok, wx, wok)
			}
		}
	}
}
