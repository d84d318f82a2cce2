package channel_test

import (
	"testing"

	"overcell/internal/channel"
	"overcell/internal/gen"
	"overcell/internal/global"
)

// TestTable1ChannelsMatchReference holds the routers to the reference
// ones on every channel problem that level A builds for the two-layer
// baseline (all nets) and the proposed flow (level A nets) on the three
// Table 1 instances.
func TestTable1ChannelsMatchReference(t *testing.T) {
	for _, mk := range []func() (*gen.Instance, error){gen.Ami33Like, gen.XeroxLike, gen.Ex3Like} {
		for _, subset := range []func(gen.NetSpec) bool{nil, gen.NetSpec.LevelA} {
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
					channel.MatchReference(t, p)
				}
			}
		}
	}
}
