package channel_test

import (
	"fmt"
	"reflect"
	"testing"

	"overcell/internal/channel"
	"overcell/internal/gen"
	"overcell/internal/global"
)

// table1Channels returns the valid channel problems that level A
// builds on the three Table 1 instances for the nets subset keeps:
// all of them (nil) for the two-layer baseline, the level A nets for
// the proposed flow.
func table1Channels(t *testing.T, subset func(gen.NetSpec) bool) []*channel.Problem {
	t.Helper()
	var out []*channel.Problem
	for _, mk := range []func() (*gen.Instance, error){gen.Ami33Like, gen.XeroxLike, gen.Ex3Like} {
		inst, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		l := inst.Layout
		if err := l.Place(make([]int, l.NumChannels())); err != nil {
			t.Fatal(err)
		}
		asg, err := global.Assign(l, inst.GlobalNets(subset))
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range asg.Problems {
			if p.Validate() == nil {
				out = append(out, p)
			}
		}
	}
	return out
}

// TestTable1ChannelsMatchReference holds the routers to the reference
// ones on every channel problem that level A builds for the two-layer
// baseline (all nets) and the proposed flow (level A nets) on the three
// Table 1 instances.
func TestTable1ChannelsMatchReference(t *testing.T) {
	for _, subset := range []func(gen.NetSpec) bool{nil, gen.NetSpec.LevelA} {
		for _, p := range table1Channels(t, subset) {
			channel.MatchReference(t, p)
		}
	}
}

// TestNetMergeDeterministic routes each Table 1 baseline channel 20
// times with net merging: every call must return the first call's
// Solution or its error text. Some of these channels are cyclic, and
// their refusal must not vary.
func TestNetMergeDeterministic(t *testing.T) {
	for i, p := range table1Channels(t, nil) {
		first, firstErr := channel.NetMerge(p)
		for call := 1; call < 20; call++ {
			s, err := channel.NetMerge(p)
			if fmt.Sprint(err) != fmt.Sprint(firstErr) || !reflect.DeepEqual(s, first) {
				t.Fatalf("channel %d, call %d: got %v, first call %v", i, call, err, firstErr)
			}
		}
	}
}
