package flow

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"testing"
	"time"

	"overcell/internal/core"
	"overcell/internal/gen"
	"overcell/internal/geom"
	"overcell/internal/grid"
	"overcell/internal/netlist"
	"overcell/internal/obs"
	"overcell/internal/obs/congest"
)

// The golden tests pin the router's behaviour contract — flow.Hash, the
// trace NDJSON and the congestion JSON — to fixed digests, so any change
// that moves a single routed segment, trace field or congestion sample
// fails loudly. The digests were recorded on amd64; other architectures
// may fuse multiply-add in the cost evaluator and legitimately pick
// different equal-looking paths, so the tests skip there.

// golden is one pinned run: the result hash and the sha256 of the trace
// and congestion encodings.
type golden struct {
	hash, trace, congestion string
}

func sha(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// goldenRun attaches a fixed-step clock, an NDJSON writer and a
// congestion series to opt, runs fn under a single P (the scheduler
// never decides anything, whatever the host's core count) and returns
// the three digests.
func goldenRun(t *testing.T, run func(Options) (*Result, error)) golden {
	t.Helper()
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden digests are recorded on amd64; GOARCH=%s may fuse multiply-add", runtime.GOARCH)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var buf bytes.Buffer
	w := obs.NewWriter(&buf)
	series := congest.New(0, 0)
	clock := &stepClock{now: time.Unix(1000, 0), step: time.Millisecond}
	res, err := run(Options{Tracer: w, Congest: series, Clock: clock.read})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	cj, err := json.Marshal(series.Report(true))
	if err != nil {
		t.Fatal(err)
	}
	return golden{hash: Hash(res), trace: sha(buf.Bytes()), congestion: sha(cj)}
}

func checkGolden(t *testing.T, got, want golden) {
	t.Helper()
	if got.hash != want.hash {
		t.Errorf("flow.Hash = %s, want %s", got.hash, want.hash)
	}
	if got.trace != want.trace {
		t.Errorf("trace sha256 = %s, want %s", got.trace, want.trace)
	}
	if got.congestion != want.congestion {
		t.Errorf("congestion sha256 = %s, want %s", got.congestion, want.congestion)
	}
}

func TestGoldenProposedAmi33(t *testing.T) {
	inst, err := gen.Ami33Like()
	if err != nil {
		t.Fatal(err)
	}
	got := goldenRun(t, func(o Options) (*Result, error) { return Proposed(inst, o) })
	checkGolden(t, got, golden{
		hash:       "d270f562a0e48f23a8c953ec29de2f55f614f840941d0bf03ab8b6945c421b71",
		trace:      "da4050154161c5e6417b67ee1822622a4b90acef3e4a472bc21c445e81d78871",
		congestion: "46998375a1ba07e73934b8d6cddf54f05a6a280e6d4deeba254ea26575f511c5",
	})
}

func TestGoldenChannelFreeEx3(t *testing.T) {
	inst, err := gen.Ex3Like()
	if err != nil {
		t.Fatal(err)
	}
	got := goldenRun(t, func(o Options) (*Result, error) { return ChannelFree(inst, o) })
	checkGolden(t, got, golden{
		hash:       "0196ebf3dab16664d7d951806603246874166587e399d2a7b928cc1d9fae992d",
		trace:      "2e70dd2fda0d0b86f84e581fbf813df794e30a0686302ffd09bb46b98e0918f4",
		congestion: "53e6fd7be76b1e01bda38ad54b16e6970206b2c3551ac2e75c7f62cf460f27d3",
	})
}

// denseRipupInstance packs 44 LCG-placed two-terminal nets onto a 28x28
// grid, tightly enough that the first pass leaves failures behind and
// recovery rips up committed nets.
func denseRipupInstance(t *testing.T) (*grid.Grid, *netlist.Netlist) {
	t.Helper()
	g, err := grid.Uniform(28, 28, 10)
	if err != nil {
		t.Fatal(err)
	}
	nl := netlist.New()
	seed := uint64(19)
	next := func(n int) int {
		seed = seed*6364136223846793005 + 1442695040888963407
		return int((seed >> 33) % uint64(n))
	}
	used := map[geom.Point]bool{}
	pick := func() geom.Point {
		for {
			p := geom.Pt(next(28)*10, next(28)*10)
			if used[p] {
				continue
			}
			used[p] = true
			return p
		}
	}
	for i := 0; i < 44; i++ {
		nl.AddPoints(fmt.Sprintf("r%d", i), netlist.Signal, pick(), pick())
	}
	return g, nl
}

// TestGoldenDenseRipup pins the level B router alone on the rip-up-heavy
// dense instance; the result is wrapped in a flow Result only to reuse
// Hash's encoding of the level B geometry.
func TestGoldenDenseRipup(t *testing.T) {
	got := goldenRun(t, func(o Options) (*Result, error) {
		g, nl := denseRipupInstance(t)
		cfg := core.DefaultConfig()
		cfg.Tracer, cfg.Congest = o.Tracer, o.Congest
		res, err := core.New(g, cfg).Route(nl.Nets())
		if err != nil {
			return nil, err
		}
		return &Result{Flow: "level-b", LevelB: res}, nil
	})
	checkGolden(t, got, golden{
		hash:       "dd42b4ffc4b16331237076d8f0b8df15be9f845c7b463cf64f0534167f31a507",
		trace:      "c60f54f1d9bfaf706dc493b9cc682e6a3f8cb4c35d8eecbd872f68e95338b4f0",
		congestion: "75d66ef74ef5676736fa3fc173a092d687326fda018ef4213a2f24be5c99ee90",
	})
}

// The baseline goldens pin the two-layer channel flow, which makes
// every greedy channel call on the Table 1 instances and most of the
// dogleg calls. It has no level B, so the congestion series is empty.
func TestGoldenBaseline(t *testing.T) {
	for _, c := range []struct {
		name string
		gen  func() (*gen.Instance, error)
		want golden
	}{
		{"ami33", gen.Ami33Like, golden{
			hash:       "9ff145a2b103f19689f71885ba8fa0280a624b7cdff1e208c361263d7f2011cc",
			trace:      "0ba7b2b6cb28308ad89397af0127c3cbe2828b04b23b6fe633c6defea75753f1",
			congestion: "71681447e119115f86b8653a523f80caed330ee5f716db2fb614fc86370c1eb3",
		}},
		{"xerox", gen.XeroxLike, golden{
			hash:       "be3678961366af0fe3d764673fae6c9389ab4d9fcbea1650a282eac0bb7230a1",
			trace:      "0ba7b2b6cb28308ad89397af0127c3cbe2828b04b23b6fe633c6defea75753f1",
			congestion: "71681447e119115f86b8653a523f80caed330ee5f716db2fb614fc86370c1eb3",
		}},
		{"ex3", gen.Ex3Like, golden{
			hash:       "7d25b0addc0b643c88b32ca10caa4004f4e17e7377922d8ffc259965ff051058",
			trace:      "0ba7b2b6cb28308ad89397af0127c3cbe2828b04b23b6fe633c6defea75753f1",
			congestion: "71681447e119115f86b8653a523f80caed330ee5f716db2fb614fc86370c1eb3",
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			inst, err := c.gen()
			if err != nil {
				t.Fatal(err)
			}
			got := goldenRun(t, func(o Options) (*Result, error) { return TwoLayerBaseline(inst, o) })
			checkGolden(t, got, c.want)
		})
	}
}
