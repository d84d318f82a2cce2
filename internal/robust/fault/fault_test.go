package fault

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"overcell/internal/core"
	"overcell/internal/flow"
	"overcell/internal/gen"
	"overcell/internal/robust"
)

const (
	harnessNetBudget   = 4_000
	harnessTotalBudget = 200_000
)

// runHostile routes one hostile case through the proposed flow under
// an explicit budget and checks the graceful-degradation contract: no
// recovered panics, budget respected, partial results consistent.
func runHostile(t *testing.T, seed int64) {
	t.Helper()
	c, err := FromSeed(seed)
	if err != nil {
		// The parameter fuzz built an unsatisfiable layout; the
		// generator rejecting it cleanly is the desired outcome.
		return
	}
	cfg := core.DefaultConfig()
	b := robust.NewBudget(context.Background(), robust.Limits{
		NetExpansions:   harnessNetBudget,
		TotalExpansions: harnessTotalBudget,
		Timeout:         10 * time.Second,
	})
	cfg.Budget = b
	res, err := flow.Proposed(c.Inst, flow.Options{Core: &cfg, AllowPartial: true})
	if err != nil && strings.Contains(err.Error(), "panic:") {
		t.Fatalf("seed %d (%v): flow panicked: %v", seed, c.Mutations, err)
	}
	// Charge polls after adding, so the run may overshoot by at most
	// one expand call's children — bounded by one track span.
	if used := b.Used(); used > harnessTotalBudget+4096 {
		t.Fatalf("seed %d (%v): budget not respected: used %d of %d",
			seed, c.Mutations, used, harnessTotalBudget)
	}
	if err != nil {
		return // TestFlowErrorsTypedAndDeterministic checks the class
	}
	// A clean return must be internally consistent: the level B result
	// exists, was verified inside the flow, and the degraded count
	// matches the per-net errors.
	if res == nil || res.LevelB == nil {
		t.Fatalf("seed %d (%v): nil result without error", seed, c.Mutations)
	}
	if res.Degraded != res.LevelB.Failed {
		t.Fatalf("seed %d (%v): Degraded=%d but LevelB.Failed=%d",
			seed, c.Mutations, res.Degraded, res.LevelB.Failed)
	}
	for _, nr := range res.LevelB.Routes {
		if nr.Err != nil &&
			!errors.Is(nr.Err, robust.ErrBudgetExhausted) &&
			!errors.Is(nr.Err, robust.ErrUnroutable) {
			t.Fatalf("seed %d (%v): net %q degraded with unexpected error: %v",
				seed, c.Mutations, nr.Net.Name, nr.Err)
		}
	}
}

func TestHostileInstancesDegradeGracefully(t *testing.T) {
	if testing.Short() {
		t.Skip("hostile sweep is slow")
	}
	for seed := int64(0); seed < 30; seed++ {
		runHostile(t, seed)
	}
}

// TestFlowErrorsTypedAndDeterministic runs every flow over the hostile
// corpus under the harness budgets, twice on the same instance. Every
// failure must match a caller-owned taxonomy class, and the second run
// must repeat the first: same error text, same result hash. That a
// failed run fails the same way again is why ocserved executes a run
// once per process life.
func TestFlowErrorsTypedAndDeterministic(t *testing.T) {
	flows := []struct {
		name string
		run  func(*gen.Instance, flow.Options) (*flow.Result, error)
	}{
		{"baseline", flow.TwoLayerBaseline},
		{"proposed", flow.Proposed},
		{"channel4", flow.FourLayerChannel},
		{"channelfree", flow.ChannelFree},
	}
	outcome := func(res *flow.Result, err error) string {
		var s string
		if res != nil {
			s = "hash " + flow.Hash(res)
		}
		if err != nil {
			s += " error " + err.Error()
		}
		return s
	}
	for seed := int64(0); seed < 64; seed++ {
		c, err := FromSeed(seed)
		if err != nil {
			continue // the generator rejected an unsatisfiable layout
		}
		for _, f := range flows {
			opt := flow.Options{
				Limits: robust.Limits{
					NetExpansions:   harnessNetBudget,
					TotalExpansions: harnessTotalBudget,
				},
				AllowPartial: true,
			}
			res, err := f.run(c.Inst, opt)
			if err != nil &&
				!errors.Is(err, robust.ErrInvalidInput) &&
				!errors.Is(err, robust.ErrUnroutable) &&
				!errors.Is(err, robust.ErrBudgetExhausted) &&
				!errors.Is(err, robust.ErrCanceled) {
				t.Errorf("seed %d %s (%v): error matches no caller-owned class: %v",
					seed, f.name, c.Mutations, err)
			}
			first := outcome(res, err)
			if again := outcome(f.run(c.Inst, opt)); again != first {
				t.Errorf("seed %d %s (%v): re-run differs:\n first %s\n again %s",
					seed, f.name, c.Mutations, first, again)
			}
		}
	}
}

func TestFromSeedDeterministic(t *testing.T) {
	a, errA := FromSeed(7)
	b, errB := FromSeed(7)
	if (errA == nil) != (errB == nil) {
		t.Fatalf("generation determinism broken: %v vs %v", errA, errB)
	}
	if errA != nil {
		return
	}
	if len(a.Mutations) != len(b.Mutations) {
		t.Fatalf("mutation streams differ: %v vs %v", a.Mutations, b.Mutations)
	}
	for i := range a.Mutations {
		if a.Mutations[i] != b.Mutations[i] {
			t.Fatalf("mutation %d differs: %v vs %v", i, a.Mutations, b.Mutations)
		}
	}
	if len(a.Inst.Nets) != len(b.Inst.Nets) {
		t.Fatalf("instances differ: %d vs %d nets", len(a.Inst.Nets), len(b.Inst.Nets))
	}
}

func TestMutatorsCoverRegistry(t *testing.T) {
	inst, rng, err := Base(3)
	if err != nil {
		t.Skip("seed 3 base rejected")
	}
	c := MutateMask(rng, inst, 0xFF)
	if len(c.Mutations) != len(Mutators) {
		t.Fatalf("full mask applied %d of %d mutators", len(c.Mutations), len(Mutators))
	}
}
