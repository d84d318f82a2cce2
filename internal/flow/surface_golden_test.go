package flow

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"overcell/internal/core"
	"overcell/internal/gen"
	"overcell/internal/grid"
	"overcell/internal/obs"
	"overcell/internal/obs/metrics"
)

// The surface goldens pin what is rendered from a run rather than
// recorded during it: the -stats summary and the ocroute_* metric
// exposition of proposed/ami33 under the step clock, and the SVG and
// ASCII congestion heatmaps of the three golden instances at the
// default window. newStats and renderHeatmaps (surface_adapt_test.go)
// bind them to the current API. Like golden_test.go's digests these were
// recorded on amd64.

func skipOffAmd64(t *testing.T) {
	t.Helper()
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden digests are recorded on amd64; GOARCH=%s may fuse multiply-add", runtime.GOARCH)
	}
}

func TestGoldenStatsAmi33(t *testing.T) {
	skipOffAmd64(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	inst, err := gen.Ami33Like()
	if err != nil {
		t.Fatal(err)
	}
	stats := newStats()
	reg := metrics.NewRegistry()
	clock := &stepClock{now: time.Unix(1000, 0), step: time.Millisecond}
	tr := obs.Combine(stats, metrics.NewTracer(reg))
	if _, err := Proposed(inst, Options{Tracer: tr, Clock: clock.read}); err != nil {
		t.Fatal(err)
	}
	var exp bytes.Buffer
	if err := reg.WriteText(&exp); err != nil {
		t.Fatal(err)
	}
	if got, want := sha([]byte(stats.Summary())), "d983df6f8758d7e104784e5b46049b24528b283de2b0e4dd943f166a7a991978"; got != want {
		t.Errorf("-stats summary sha256 = %s, want %s\n%s", got, want, stats.Summary())
	}
	if got, want := sha(exp.Bytes()), "89e2c26182630252f93e2929264256bc44e30a6d92dceed061cc158d7b373951"; got != want {
		t.Errorf("ocroute_* exposition sha256 = %s, want %s", got, want)
	}
}

func TestGoldenHeatmaps(t *testing.T) {
	skipOffAmd64(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	levelB := func(t *testing.T, run func(*gen.Instance, Options) (*Result, error),
		mk func() (*gen.Instance, error)) *grid.Grid {
		inst, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		res, err := run(inst, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return res.BGrid
	}
	for _, tc := range []struct {
		name       string
		grid       func(*testing.T) *grid.Grid
		svg, ascii string
	}{
		{
			name:  "proposed/ami33",
			grid:  func(t *testing.T) *grid.Grid { return levelB(t, Proposed, gen.Ami33Like) },
			svg:   "2e0d13bc8b362196764fae87c1f29e566d32e939016f76df5c5726d9c8d1a6a5",
			ascii: "048ab5ea9c0c49eb39857542aafd253bc4d57f876c82daebc66fe067baf08b2d",
		},
		{
			name:  "channelfree/ex3",
			grid:  func(t *testing.T) *grid.Grid { return levelB(t, ChannelFree, gen.Ex3Like) },
			svg:   "fb92322bfa4492e977358caea0abda068dc356e8ae354f0e52c81de86883c510",
			ascii: "22cd3c78bad5c4d32e79ccaf03e4ff8a68c41cbace245351072c631c74fd2efd",
		},
		{
			name: "dense-ripup",
			grid: func(t *testing.T) *grid.Grid {
				g, nl := denseRipupInstance(t)
				if _, err := core.New(g, core.DefaultConfig()).Route(nl.Nets()); err != nil {
					t.Fatal(err)
				}
				return g
			},
			svg:   "7f3e874e94c572cccc4e6249497c26819800dc5256f17f016e5e3c9901f7ec14",
			ascii: "49ea1a4d672e4e45c9e08cb67b8f8211e1fe2d4aefb9d47e7a6560529be50f8d",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			svg, ascii := renderHeatmaps(t, tc.grid(t), 8)
			if got := sha([]byte(svg)); got != tc.svg {
				t.Errorf("heatmap SVG sha256 = %s, want %s", got, tc.svg)
			}
			if got := sha([]byte(ascii)); got != tc.ascii {
				t.Errorf("heatmap ASCII sha256 = %s, want %s\n%s", got, tc.ascii, ascii)
			}
		})
	}
}
