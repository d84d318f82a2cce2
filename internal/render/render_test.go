package render

import (
	"bytes"
	"strings"
	"testing"

	"overcell/internal/channel"
	"overcell/internal/core"
	"overcell/internal/floorplan"
	"overcell/internal/geom"
	"overcell/internal/grid"
	"overcell/internal/netlist"
	"overcell/internal/tig"
)

func routedExample(t *testing.T) (*grid.Grid, *core.Result) {
	t.Helper()
	g, err := grid.Uniform(12, 10, 10)
	if err != nil {
		t.Fatal(err)
	}
	g.BlockRect(geom.R(50, 40, 70, 60), grid.MaskBoth)
	nl := netlist.New()
	nl.AddPoints("a", netlist.Signal, geom.Pt(10, 10), geom.Pt(100, 80))
	res, err := core.New(g, core.DefaultConfig()).Route(nl.Nets())
	if err != nil || res.Failed != 0 {
		t.Fatalf("route: %v / %d failed", err, res.Failed)
	}
	return g, res
}

func TestGridASCII(t *testing.T) {
	g, res := routedExample(t)
	art := GridASCII(g, res, 1)
	lines := strings.Split(strings.TrimRight(art, "\n"), "\n")
	if len(lines) != 10 {
		t.Fatalf("rows = %d, want 10", len(lines))
	}
	for i, l := range lines {
		if len(l) != 12 {
			t.Fatalf("line %d width = %d, want 12", i, len(l))
		}
	}
	for _, want := range []string{"o", "#"} {
		if !strings.Contains(art, want) {
			t.Errorf("missing %q in rendering:\n%s", want, art)
		}
	}
	// Wires present: at least one of -, |, x.
	if !strings.ContainsAny(art, "-|x") {
		t.Errorf("no wires rendered:\n%s", art)
	}
	// Downsampling shrinks the output.
	small := GridASCII(g, res, 3)
	if len(small) >= len(art) {
		t.Error("downsampled render not smaller")
	}
	// Nil result renders obstacles only.
	empty := GridASCII(g, nil, 0)
	if strings.ContainsAny(empty, "-|xo") {
		t.Error("nil-result render contains wires")
	}
}

func TestTreeASCII(t *testing.T) {
	// On an empty 6x5 grid the search from v2 at row 2 enters every
	// other row at column 1, and h4 completes to (c5,r3).
	g, err := grid.Uniform(6, 5, 10)
	if err != nil {
		t.Fatal(err)
	}
	res, ok := tig.Search(g, tig.Point{Col: 1, Row: 2}, tig.Point{Col: 5, Row: 3}, tig.Config{Starts: tig.StartVertical})
	if !ok || len(res.Trees) != 1 {
		t.Fatalf("search: ok %v, %d trees", ok, len(res.Trees))
	}
	want := "v2 (enter @2)\n  h1 (enter @1)\n  h2 (enter @1)\n  h4 (enter @1)\n  h5 (enter @1)\n"
	if out := TreeASCII(res.Trees[0]); out != want {
		t.Errorf("tree rendering:\n%s\nwant:\n%s", out, want)
	}
}

func TestPathASCII(t *testing.T) {
	p := tig.Path{Points: []tig.Point{{Col: 1, Row: 1}, {Col: 1, Row: 3}, {Col: 5, Row: 3}}}
	if got := PathASCII(p); got != "(v2,h4,v6)" {
		t.Errorf("PathASCII = %s, want (v2,h4,v6)", got)
	}
	q := tig.Path{Points: []tig.Point{{Col: 1, Row: 1}, {Col: 4, Row: 1}, {Col: 4, Row: 3}}}
	if got := PathASCII(q); got != "(h2,v5,h4)" {
		t.Errorf("PathASCII = %s, want (h2,v5,h4)", got)
	}
	if got := PathASCII(tig.Path{Points: []tig.Point{{Col: 0, Row: 0}}}); got != "()" {
		t.Errorf("degenerate PathASCII = %s", got)
	}
}

func TestSVG(t *testing.T) {
	l := floorplan.New(floorplan.DefaultTech(), 10)
	r0 := l.AddRow(20)
	c := r0.AddCell("a", 80, 60)
	c.Sensitive = true
	r1 := l.AddRow(20)
	r1.AddCell("b", 60, 50)
	if err := l.Place([]int{30}); err != nil {
		t.Fatal(err)
	}
	g, res := routedExample(t)
	var buf bytes.Buffer
	if err := SVG(&buf, l, g, res); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"<svg", "</svg>", "#f2b8b8", "<line", "fill=\"black\""} {
		if !strings.Contains(out, want) {
			t.Errorf("SVG missing %q", want)
		}
	}
	// Without routing: cells only, no wires.
	buf.Reset()
	if err := SVG(&buf, l, nil, nil); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "<line") {
		t.Error("unrouted SVG contains wires")
	}
}

func TestNetTable(t *testing.T) {
	_, res := routedExample(t)
	out := NetTable(res)
	if !strings.Contains(out, "a") || !strings.Contains(out, "ok") {
		t.Errorf("net table wrong:\n%s", out)
	}
	if !strings.HasPrefix(out, "net") {
		t.Error("missing header")
	}
	for _, col := range []string{"expanded", "esc"} {
		if !strings.Contains(out, col) {
			t.Errorf("net table missing %q column:\n%s", col, out)
		}
	}
}

func TestChannelASCII(t *testing.T) {
	p := &channel.Problem{
		Top:    []int{1, 0, 2, 1},
		Bottom: []int{0, 1, 0, 2},
	}
	s, err := channel.Greedy(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(p); err != nil {
		t.Fatal(err)
	}
	out := ChannelASCII(p, s)
	for _, want := range []string{"top", "bot", "t0", "*"} {
		if !strings.Contains(out, want) {
			t.Errorf("channel render missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != s.Tracks+3 {
		t.Errorf("rows = %d, want %d", len(lines), s.Tracks+3)
	}
}

func TestTextDump(t *testing.T) {
	_, res := routedExample(t)
	var buf bytes.Buffer
	if err := TextDump(&buf, res); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"net a pins=2", "wire ", "term (", "status=ok"} {
		if !strings.Contains(out, want) {
			t.Errorf("dump missing %q:\n%s", want, out)
		}
	}
	// Deterministic: two dumps identical.
	var buf2 bytes.Buffer
	if err := TextDump(&buf2, res); err != nil {
		t.Fatal(err)
	}
	if buf.String() != buf2.String() {
		t.Error("dump not deterministic")
	}
}
