// Package congest records a deterministic congestion time-series over
// one routing run: one sample per net commit, taken at the live-grid
// commit boundary (core.CommitObserver), holding the per-layer track
// utilisation, the hottest tile, the overflowed-tile count and a full
// per-tile occupancy frame. Because the router commits nets in its
// deterministic routing order, and every quantity is integer arithmetic
// over grid counts, the series — including its JSON encoding — is
// byte-identical run to run. This is the
// data surface the ROADMAP's congestion-driven global-routing stage
// consumes, and what GET /runs/{id}/congestion serves.
//
// All occupancy fractions are stored in basis points (1/100 of a
// percent, 0..10000): integer values survive JSON round-trips exactly
// and rank cleanly in dashboards.
package congest

import (
	"sync"

	"overcell/internal/geom"
	"overcell/internal/grid"
)

// Defaults: the tile window is also the heatmap's (ocroute -heatwin,
// ocserved heat_win), and a tile counts as overflowed when four fifths
// of its (point, layer) capacity is gone — past that the completion
// ladder starts escalating nets through it.
const (
	DefaultWin        = 8
	DefaultOverflowBP = 8000
)

// Sample is one commit-boundary observation.
type Sample struct {
	// Rank is the net's 1-based serial routing position; rip-up retries
	// repeat the original rank, so a rank appearing twice marks a
	// recovery re-route.
	Rank int `json:"rank"`
	// Net names the committed net; Failed marks commits of nets that
	// could not complete (their partial tree still occupies the grid).
	Net    string `json:"net"`
	Failed bool   `json:"failed,omitempty"`
	// UtilHBP/UtilVBP are the whole-grid blocked fractions of the
	// horizontal- and vertical-track layers, in basis points: obstacles,
	// terminal stacks and committed wire all count, mirroring what the
	// router's own congestion cost sees.
	UtilHBP int `json:"util_h_bp"`
	UtilVBP int `json:"util_v_bp"`
	// PeakBP is the hottest tile's occupancy with its tile coordinates
	// (ties to the lowest row, then column).
	PeakBP  int `json:"peak_bp"`
	PeakCol int `json:"peak_col"`
	PeakRow int `json:"peak_row"`
	// Overflow counts tiles at or above the series' overflow threshold.
	Overflow int `json:"overflow_tiles"`
}

// Series accumulates samples for one run. It implements
// core.CommitObserver; attach via core.Config.Congest (or
// flow.Options.Congest). The router calls NetCommitted from the one
// goroutine owning the live grid; the mutex only guards against
// concurrent Report/Last readers (an HTTP handler polling mid-run).
type Series struct {
	mu         sync.Mutex
	win        int
	overflowBP int
	cols, rows int // tiling, fixed by the first committed grid
	samples    []Sample
	frames     [][]int // per-sample row-major tile occupancy, basis points
}

// New returns an empty series tiling the grid into win-by-win track
// windows (win < 1 means DefaultWin) with the given overflow threshold
// in basis points (≤ 0 means DefaultOverflowBP).
func New(win, overflowBP int) *Series {
	if win < 1 {
		win = DefaultWin
	}
	if overflowBP <= 0 {
		overflowBP = DefaultOverflowBP
	}
	return &Series{win: win, overflowBP: overflowBP}
}

// NetCommitted implements core.CommitObserver: sample the grid after
// one net's metal landed on it.
func (s *Series) NetCommitted(rank int, net string, failed bool, g *grid.Grid) {
	f := Tile(g, s.win)
	sm := Sample{Rank: rank, Net: net, Failed: failed}
	sm.PeakCol, sm.PeakRow, sm.PeakBP = f.Hottest()
	for _, bp := range f.BP {
		if bp >= s.overflowBP {
			sm.Overflow++
		}
	}
	h, v := g.BlockedPerLayer()
	points := g.NX() * g.NY()
	sm.UtilHBP = ratioBP(h, points)
	sm.UtilVBP = ratioBP(v, points)
	s.mu.Lock()
	s.cols, s.rows = f.Cols, f.Rows
	s.samples = append(s.samples, sm)
	s.frames = append(s.frames, f.BP)
	s.mu.Unlock()
}

// Frame is one tiling of a grid into Win-by-Win track windows. BP holds
// each window's blocked fraction in basis points, row-major from the
// bottom-left window (BP[r*Cols+c]), matching grid orientation.
type Frame struct {
	Win, Cols, Rows int
	BP              []int
}

// Tile cuts g into win-by-win track windows and samples each window's
// occupancy. win < 1 means DefaultWin; a window wider than the grid's
// larger side is clamped to it, so the tile counts cannot overflow and
// every grid yields at least one tile.
func Tile(g *grid.Grid, win int) Frame {
	if win < 1 {
		win = DefaultWin
	}
	win = min(win, max(g.NX(), g.NY()))
	f := Frame{Win: win, Cols: (g.NX() + win - 1) / win, Rows: (g.NY() + win - 1) / win}
	f.BP = make([]int, f.Cols*f.Rows)
	for r := 0; r < f.Rows; r++ {
		for c := 0; c < f.Cols; c++ {
			cw := geom.Iv(c*win, (c+1)*win-1).Intersect(geom.Iv(0, g.NX()-1))
			rw := geom.Iv(r*win, (r+1)*win-1).Intersect(geom.Iv(0, g.NY()-1))
			f.BP[r*f.Cols+c] = occupancyBP(g, cw, rw)
		}
	}
	return f
}

// Hottest returns the tile with the highest occupancy and its value in
// basis points, ties to the lowest row, then column (bp is -1 for a
// frame without tiles).
func (f Frame) Hottest() (c, r, bp int) {
	bp = -1
	for i, v := range f.BP {
		if v > bp {
			bp, c, r = v, i%f.Cols, i/f.Cols
		}
	}
	return c, r, bp
}

// occupancyBP is the blocked fraction of the index-space window in
// basis points — grid.CongestionIn in exact integer arithmetic.
func occupancyBP(g *grid.Grid, cols, rows geom.Interval) int {
	if cols.Empty() || rows.Empty() {
		return 0
	}
	return ratioBP(g.BlockedCountIn(cols, rows), 2*cols.Len()*rows.Len())
}

// ratioBP returns num/den in basis points, rounded half-up.
func ratioBP(num, den int) int {
	if den == 0 {
		return 0
	}
	return (num*10000 + den/2) / den
}

// Report is the JSON shape of GET /runs/{id}/congestion.
type Report struct {
	// Win is the tile window in tracks; Cols x Rows the tiling (0x0
	// until the first commit lands).
	Win        int `json:"win"`
	Cols       int `json:"cols"`
	Rows       int `json:"rows"`
	OverflowBP int `json:"overflow_bp"`
	// Samples is the commit-ordered time-series.
	Samples []Sample `json:"samples"`
	// Frames, when requested, holds one row-major per-tile occupancy
	// frame (basis points) per sample; Frames[i] is the grid right
	// after Samples[i]'s commit.
	Frames [][]int `json:"frames,omitempty"`
}

// Report snapshots the series, copying the samples (and frames when
// withFrames) so the caller can encode without holding the run.
func (s *Series) Report(withFrames bool) *Report {
	s.mu.Lock()
	defer s.mu.Unlock()
	rep := &Report{
		Win: s.win, Cols: s.cols, Rows: s.rows, OverflowBP: s.overflowBP,
		Samples: append([]Sample{}, s.samples...),
	}
	if withFrames {
		rep.Frames = make([][]int, len(s.frames))
		for i, f := range s.frames {
			rep.Frames[i] = append([]int{}, f...)
		}
	}
	return rep
}

// Last returns the most recent sample, reporting ok=false while the
// series is empty. Metric gauges read it after each poll.
func (s *Series) Last() (Sample, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.samples) == 0 {
		return Sample{}, false
	}
	return s.samples[len(s.samples)-1], true
}

// Len returns the number of samples recorded so far.
func (s *Series) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.samples)
}
