package flow

import (
	"testing"

	"overcell/internal/gen"
)

// runFlows executes the baseline and proposed flows on an instance and
// returns both results. Flows re-place the shared layout, so each flow
// runs on a fresh copy of the instance.
func build(t *testing.T, mk func() (*gen.Instance, error)) *gen.Instance {
	t.Helper()
	inst, err := mk()
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func TestBaselineFlowAmi33(t *testing.T) {
	inst := build(t, gen.Ami33Like)
	res, err := TwoLayerBaseline(inst, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Area <= 0 || res.WireLength <= 0 || res.Vias <= 0 {
		t.Errorf("degenerate metrics: %+v", res)
	}
	if len(res.ChannelTracks) != inst.Layout.NumChannels() {
		t.Errorf("tracks per channel = %v", res.ChannelTracks)
	}
	for i, tr := range res.ChannelTracks {
		if tr == 0 {
			t.Errorf("channel %d routed with zero tracks in the all-channel flow", i)
		}
	}
}

func TestProposedFlowAmi33(t *testing.T) {
	inst := build(t, gen.Ami33Like)
	res, err := Proposed(inst, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.LevelB == nil || res.LevelB.Failed != 0 {
		t.Fatalf("level B result: %+v", res.LevelB)
	}
	if res.Area <= 0 {
		t.Error("no area")
	}
}

func TestProposedBeatsBaselineOnAllMetrics(t *testing.T) {
	for _, mk := range []func() (*gen.Instance, error){gen.Ami33Like, gen.XeroxLike, gen.Ex3Like} {
		base, err := TwoLayerBaseline(build(t, mk), Options{})
		if err != nil {
			t.Fatal(err)
		}
		prop, err := Proposed(build(t, mk), Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: area %d -> %d, wl %d -> %d, vias %d -> %d",
			prop.Flow, base.Area, prop.Area, base.WireLength, prop.WireLength, base.Vias, prop.Vias)
		if prop.Area >= base.Area {
			t.Errorf("area not reduced: %d vs %d", prop.Area, base.Area)
		}
		if prop.WireLength >= base.WireLength {
			t.Errorf("wire length not reduced: %d vs %d", prop.WireLength, base.WireLength)
		}
		if prop.Vias >= base.Vias {
			t.Errorf("vias not reduced: %d vs %d", prop.Vias, base.Vias)
		}
	}
}

func TestFourLayerChannelHalvesChannels(t *testing.T) {
	for _, mk := range []func() (*gen.Instance, error){gen.Ami33Like, gen.XeroxLike, gen.Ex3Like} {
		base, err := TwoLayerBaseline(build(t, mk), Options{})
		if err != nil {
			t.Fatal(err)
		}
		four, err := FourLayerChannel(build(t, mk), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if four.Area >= base.Area {
			t.Errorf("4-layer channel area %d not below 2-layer %d", four.Area, base.Area)
		}
		// Table 3 shape: the over-cell flow undercuts even the optimistic
		// 4-layer channel model, on every example, as in the paper.
		prop, err := Proposed(build(t, mk), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if prop.Area >= four.Area {
			t.Errorf("over-cell area %d not below 4-layer channel %d", prop.Area, four.Area)
		}
	}
}

func TestChannelFreeFlow(t *testing.T) {
	inst := build(t, gen.Ex3Like)
	res, err := ChannelFree(inst, Options{})
	if err != nil {
		t.Fatal(err)
	}
	prop, err := Proposed(build(t, gen.Ex3Like), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Area >= prop.Area {
		t.Errorf("channel-free area %d not below proposed %d", res.Area, prop.Area)
	}
	if res.LevelB == nil || res.LevelB.Failed != 0 {
		t.Error("channel-free level B failed")
	}
}

func TestFlowDeterminism(t *testing.T) {
	a, err := Proposed(build(t, gen.Ami33Like), Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Proposed(build(t, gen.Ami33Like), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Area != b.Area || a.WireLength != b.WireLength || a.Vias != b.Vias {
		t.Errorf("nondeterministic flow: %+v vs %+v", a, b)
	}
}

func TestCustomPartitionPolicy(t *testing.T) {
	// Push the high-fanout nets to level B too: only nets with at most
	// 5 pins stay in the channels. Channels should shrink further or
	// stay equal relative to the by-class split, never grow.
	inst := build(t, gen.Ami33Like)
	custom, err := Proposed(inst, Options{
		Partition: func(s gen.NetSpec) bool { return s.LevelA() && len(s.Pins) <= 5 },
	})
	if err != nil {
		t.Fatal(err)
	}
	byClass, err := Proposed(build(t, gen.Ami33Like), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// ami33's level A nets are all high-fanout, so the custom policy
	// empties the channels entirely.
	for i, tr := range custom.ChannelTracks {
		if tr != 0 {
			t.Errorf("channel %d has %d tracks under the empty-A policy", i, tr)
		}
	}
	if custom.Area >= byClass.Area {
		t.Errorf("empty-channel partition did not shrink area: %d vs %d",
			custom.Area, byClass.Area)
	}
	if custom.LevelB == nil || custom.LevelB.Failed != 0 {
		t.Error("custom partition failed level B completion")
	}
}

// TestDelayImprovement verifies the paper's section 2 motivation: the
// proposed flow's nets are faster on average than the baseline's — the
// over-cell nets are shorter (no channel detours) and run on the
// lower-resistance wide layer pair.
func TestDelayImprovement(t *testing.T) {
	for _, mk := range []func() (*gen.Instance, error){gen.Ami33Like, gen.XeroxLike} {
		base, err := TwoLayerBaseline(build(t, mk), Options{})
		if err != nil {
			t.Fatal(err)
		}
		prop, err := Proposed(build(t, mk), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if base.Delay.Nets == 0 || prop.Delay.Nets == 0 {
			t.Fatal("no delays computed")
		}
		if base.Delay.Nets != prop.Delay.Nets {
			t.Fatalf("net counts differ: %d vs %d", base.Delay.Nets, prop.Delay.Nets)
		}
		t.Logf("mean delay %.0f -> %.0f, max %.0f -> %.0f",
			base.Delay.Mean, prop.Delay.Mean, base.Delay.Max, prop.Delay.Max)
		if prop.Delay.Mean >= base.Delay.Mean {
			t.Errorf("mean delay not improved: %.1f vs %.1f", prop.Delay.Mean, base.Delay.Mean)
		}
	}
}
