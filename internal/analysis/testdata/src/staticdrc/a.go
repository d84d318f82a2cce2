// Package staticdrc is the analysistest corpus for the staticdrc
// analyzer: config construction sites whose constant fields prove a
// design-rule violation at analysis time. The types mirror the shapes
// of floorplan.Tech, geom.Interval/Iv/Rect, core.Weights/Config, and
// floorplan.Obstacle; staticdrc matches structurally, so the corpus
// needs no imports.
package staticdrc

// Tech mirrors floorplan.Tech's pitch fields.
type Tech struct {
	M12Pitch int
	M34Pitch int
}

// Interval mirrors geom.Interval.
type Interval struct{ Lo, Hi int }

// Iv mirrors geom.Iv.
func Iv(lo, hi int) Interval { return Interval{Lo: lo, Hi: hi} }

// Weights mirrors core.Weights' cost weights.
type Weights struct {
	WL     float64
	Window float64
}

// Config mirrors core.Config's search budgets.
type Config struct {
	MaxCorners   int
	MaxPaths     int
	RipupVictims int
	RipupPasses  int
}

// Rect mirrors geom.Rect.
type Rect struct{ X0, Y0, X1, Y1 int }

// Obstacle mirrors floorplan.Obstacle.
type Obstacle struct{ Rect Rect }

var (
	zeroPitch = Tech{M12Pitch: 0, M34Pitch: 8}      // want `invalid technology: M12Pitch = 0, track pitch must be positive`
	denseB    = Tech{M12Pitch: 8, M34Pitch: 4}      // want `M34Pitch 4 finer than M12Pitch 8`
	emptyIv   = Interval{Lo: 5, Hi: 2}              // want `inverted interval bounds \[5,2\]`
	emptyIv2  = Iv(7, 3)                            // want `inverted interval bounds Iv\(7, 3\)`
	badW      = Weights{WL: -1, Window: 2}          // want `invalid router weights: WL = -1`
	badCfg    = Config{MaxCorners: -2, MaxPaths: 4} // want `invalid router config: MaxCorners = -2`

	badObstacles = []Obstacle{
		{Rect: Rect{X0: 0, Y0: 0, X1: 10, Y1: 10}},
		{Rect: Rect{X0: 5, Y0: 5, X1: 15, Y1: 15}},  // want `overlaps earlier reserved rectangle`
		{Rect: Rect{X0: 30, Y0: 0, X1: 20, Y1: 10}}, // want `inverted obstacle rectangle`
	}
)
