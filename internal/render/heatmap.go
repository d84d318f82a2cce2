package render

import (
	"fmt"
	"io"
	"strings"

	"overcell/internal/obs/congest"
)

// heatRamp maps occupancy fractions to ASCII shades, coldest to
// hottest.
const heatRamp = " .:-=+*#%@"

// HeatmapASCII renders a congestion frame one character per tile, top
// row first (matching GridASCII orientation), with a legend line.
func HeatmapASCII(f congest.Frame) string {
	var b strings.Builder
	_, _, peak := f.Hottest()
	fmt.Fprintf(&b, "congestion heatmap %dx%d tiles, %d tracks/tile, max=%.2f (ramp \"%s\" = 0..1)\n",
		f.Cols, f.Rows, f.Win, float64(peak)/10000, heatRamp)
	for r := f.Rows - 1; r >= 0; r-- {
		for _, bp := range f.BP[r*f.Cols : (r+1)*f.Cols] {
			b.WriteByte(heatRamp[min(bp*len(heatRamp)/10000, len(heatRamp)-1)])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// HeatmapSVG draws a congestion frame as a tile grid, coloured as
// CongestionSVG colours its frames: white (free) through yellow to red
// (fully occupied), bottom row at the bottom, one tile annotated per
// cell via a tooltip title.
func HeatmapSVG(w io.Writer, f congest.Frame) error {
	const tile = 12
	width, height := f.Cols*tile, f.Rows*tile
	if _, err := fmt.Fprintf(w,
		`<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 %d %d">`+"\n", width, height); err != nil {
		return err
	}
	fmt.Fprintf(w, `<rect width="%d" height="%d" fill="white"/>`+"\n", width, height)
	for r := 0; r < f.Rows; r++ {
		for c := 0; c < f.Cols; c++ {
			bp := f.BP[r*f.Cols+c]
			if bp <= 0 {
				continue
			}
			occ := float64(bp) / 10000
			red, green, blue := heatColor(occ)
			fmt.Fprintf(w, `<rect x="%d" y="%d" width="%d" height="%d" fill="rgb(%d,%d,%d)"><title>tile (%d,%d) occ=%.2f</title></rect>`+"\n",
				c*tile, (f.Rows-1-r)*tile, tile, tile, red, green, blue, c, r, occ)
		}
	}
	_, err := fmt.Fprintln(w, "</svg>")
	return err
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
