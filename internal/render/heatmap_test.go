package render

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"overcell/internal/geom"
	"overcell/internal/grid"
	"overcell/internal/obs/congest"
)

func heatmapExample(t *testing.T) congest.Frame {
	t.Helper()
	g, err := grid.Uniform(32, 16, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Fully block the left quarter, leave the rest free.
	g.BlockRect(geom.R(0, 0, 70, 150), grid.MaskBoth)
	return congest.Tile(g, 8)
}

func TestHeatmapASCII(t *testing.T) {
	h := heatmapExample(t)
	out := HeatmapASCII(h)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != h.Rows+1 {
		t.Fatalf("lines = %d, want %d tiles + header", len(lines), h.Rows+1)
	}
	if !strings.Contains(lines[0], "congestion heatmap") {
		t.Errorf("missing header: %s", lines[0])
	}
	// The blocked left edge renders hot, the free right edge cold.
	row := lines[1]
	if row[0] != '@' || row[len(row)-1] != ' ' {
		t.Errorf("tile shades wrong: %q", row)
	}
	if HeatmapASCII(h) != out {
		t.Error("ASCII heatmap not deterministic")
	}
}

func TestCongestionSVG(t *testing.T) {
	rep := &congest.Report{
		Win: 8, Cols: 2, Rows: 1, OverflowBP: 8000,
		Samples: []congest.Sample{
			{Rank: 1, Net: "a", PeakBP: 0},
			{Rank: 2, Net: "b", PeakBP: 9000, Overflow: 1},
		},
		Frames: [][]int{{0, 0}, {9000, 0}},
	}
	var buf bytes.Buffer
	if err := CongestionSVG(&buf, rep); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "<svg") || !strings.Contains(out, "</svg>") {
		t.Fatalf("not an svg document:\n%s", out)
	}
	if !strings.Contains(out, "<animate") {
		t.Fatalf("animated frames missing:\n%s", out)
	}

	// Empty report degrades to the placeholder, not an error.
	buf.Reset()
	if err := CongestionSVG(&buf, &congest.Report{Win: 8}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "no congestion samples") {
		t.Fatalf("placeholder missing:\n%s", buf.String())
	}
}

func TestCongestionSVGStridesLongSeries(t *testing.T) {
	rep := &congest.Report{Win: 8, Cols: 1, Rows: 1}
	for i := 0; i < 500; i++ {
		rep.Samples = append(rep.Samples, congest.Sample{Rank: i + 1, Net: "n"})
		rep.Frames = append(rep.Frames, []int{i * 20})
	}
	var buf bytes.Buffer
	if err := CongestionSVG(&buf, rep); err != nil {
		t.Fatal(err)
	}
	// One animated tile: its values list must hold at most
	// maxAnimFrames+1 colour stops, and end on the final frame's colour.
	out := buf.String()
	vi := strings.Index(out, `values="rgb`)
	if vi < 0 {
		t.Fatalf("no animated values list:\n%s", out[:200])
	}
	list := out[vi+len(`values="`):]
	list = list[:strings.Index(list, `"`)]
	stops := strings.Count(list, ";") + 1
	if stops > maxAnimFrames+1 {
		t.Fatalf("%d colour stops, want <= %d", stops, maxAnimFrames+1)
	}
	r, g, b := heatColor(float64(499*20) / 10000)
	if !strings.HasSuffix(list, fmt.Sprintf("rgb(%d,%d,%d)", r, g, b)) {
		t.Fatalf("final frame colour missing from %q", list[len(list)-40:])
	}
}

func TestHeatmapSVG(t *testing.T) {
	h := heatmapExample(t)
	var buf bytes.Buffer
	if err := HeatmapSVG(&buf, h); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"<svg", "</svg>", "rgb(255,0,", "occ=1.00"} {
		if !strings.Contains(out, want) {
			t.Errorf("SVG missing %q", want)
		}
	}
	// Free tiles are skipped entirely (white background shows through).
	if got := strings.Count(out, "<rect"); got != 1+h.Rows*(h.Cols/4) {
		t.Errorf("rect count = %d, want background + %d hot tiles", got, h.Rows*(h.Cols/4))
	}
}
