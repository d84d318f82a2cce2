package flow

import (
	"bytes"
	"testing"

	"overcell/internal/grid"
	"overcell/internal/obs/congest"
	"overcell/internal/obs/metrics"
	"overcell/internal/render"
)

// newStats returns the aggregate behind ocroute -stats.
func newStats() *metrics.Tracer { return metrics.NewTracer(nil) }

// renderHeatmaps renders g's congestion heatmap at the given window as
// ocroute -heatmap writes it: SVG and ASCII.
func renderHeatmaps(t *testing.T, g *grid.Grid, win int) (svg, ascii string) {
	t.Helper()
	h := congest.Tile(g, win)
	var b bytes.Buffer
	if err := render.HeatmapSVG(&b, h); err != nil {
		t.Fatal(err)
	}
	return b.String(), render.HeatmapASCII(h)
}
