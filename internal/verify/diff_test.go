package verify_test

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"overcell/internal/core"
	"overcell/internal/flow"
	"overcell/internal/geom"
	"overcell/internal/netlist"
	"overcell/internal/robust"
	"overcell/internal/robust/fault"
	"overcell/internal/tig"
	"overcell/internal/verify"
)

// The differential tests hold the flat checks to the point-map oracle:
// on every input each check, and LevelB, must return the oracle's error
// text byte for byte, or nil where it does.

// differ returns the first check on which verify and the oracle
// disagree, described, or "" when they agree on all of them. LevelB
// reports the first failing check, so the oracle's LevelB verdict is
// taken from its three checks rather than computed again.
func differ(res *core.Result, regions []verify.Region) string {
	oc := verify.OracleConflicts(res)
	on := verify.OracleConnectivity(res)
	oa := verify.OracleAvoidsRegions(res, regions)
	checks := []struct {
		name      string
		got, want error
	}{
		{"Conflicts", verify.Conflicts(res), oc},
		{"Connectivity", verify.Connectivity(res), on},
		{"AvoidsRegions", verify.AvoidsRegions(res, regions), oa},
		{"LevelB", verify.LevelB(res, regions), cmp.Or(oc, on, oa)},
	}
	for _, c := range checks {
		if text(c.got) != text(c.want) {
			return fmt.Sprintf("%s = %s, oracle %s", c.name, text(c.got), text(c.want))
		}
	}
	return ""
}

// text renders an error for comparison, keeping nil apart from any
// message.
func text(err error) string {
	if err == nil {
		return "<nil>"
	}
	return fmt.Sprintf("%q", err.Error())
}

func TestDifferentialCorpus(t *testing.T) {
	bases := corpusBases(t)
	for _, rc := range bases {
		if d := differ(rc.res, rc.regions); d != "" {
			t.Errorf("%s: %s", rc.name, d)
		}
	}
	for _, m := range mutants(bases, corpusPerKind()) {
		if d := differ(m.res, m.regions); d != "" {
			t.Errorf("%s: %s", m.name, d)
		}
	}
}

// The fault-harness limits: the per-net and total expansion caps and
// the deadline the hostile-instance sweep routes under.
const (
	faultNetBudget   = 4_000
	faultTotalBudget = 200_000
	faultSeeds       = 30
)

// TestDifferentialFaultSeeds routes the hostile instances of the fault
// harness and compares the checks on every level B result they reach,
// and on a few corruptions of each.
func TestDifferentialFaultSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("routes the 30 hostile fault-harness instances")
	}
	var bases []routedCase
	for seed := int64(0); seed < faultSeeds; seed++ {
		c, err := fault.FromSeed(seed)
		if err != nil {
			continue // the generator rejected an unsatisfiable layout
		}
		cfg := core.DefaultConfig()
		cfg.Budget = robust.NewBudget(context.Background(), robust.Limits{
			NetExpansions:   faultNetBudget,
			TotalExpansions: faultTotalBudget,
			Timeout:         10 * time.Second,
		})
		res, err := flow.Proposed(c.Inst, flow.Options{Core: &cfg, AllowPartial: true})
		if res == nil || res.LevelB == nil {
			continue // rejected before level B: nothing to verify
		}
		if err != nil && !errors.Is(err, robust.ErrBudgetExhausted) {
			t.Fatalf("seed %d: partial result with error %v", seed, err)
		}
		bases = append(bases, routedCase{fmt.Sprintf("fault%d", seed), res.LevelB, regions(c.Inst, res.BGrid)})
	}
	if len(bases) == 0 {
		t.Fatal("no fault-harness seed reached level B")
	}
	t.Logf("%d of %d seeds reached level B", len(bases), faultSeeds)
	for _, rc := range bases {
		if d := differ(rc.res, rc.regions); d != "" {
			t.Errorf("%s: %s", rc.name, d)
		}
	}
	for _, m := range mutants(bases, 2) {
		if d := differ(m.res, m.regions); d != "" {
			t.Errorf("%s: %s", m.name, d)
		}
	}
}

// decode builds a small level B result and obstacle regions from b,
// taking bytes in order and reading missing ones as zero, so that every
// input decodes. Routes draw from four net IDs under eight names, so
// routes share nets and one net may appear under two names; some
// routes are failed nets, and segments may be empty or reach off the
// grid's low edge.
func decode(b []byte) (*core.Result, []verify.Region) {
	next := func() int {
		if len(b) == 0 {
			return 0
		}
		v := int(b[0])
		b = b[1:]
		return v
	}
	coord := func() int { return next()%12 - 1 }
	pt := func() tig.Point { return tig.Point{Col: coord(), Row: coord()} }
	var nets [8]*netlist.Net
	for i := range nets {
		nets[i] = &netlist.Net{ID: netlist.NetID(i % 4), Name: fmt.Sprintf("n%d", i)}
	}
	res := &core.Result{}
	for r := next() % 7; r > 0; r-- {
		h := next()
		nr := &core.NetRoute{Net: nets[h%8]}
		if h&0x80 != 0 {
			nr.Err = errFailed
			res.Failed++
		}
		for n := next() % 5; n > 0; n-- {
			x := next()
			lo := coord()
			nr.Segments = append(nr.Segments, core.Segment{
				Horizontal: x&1 == 0, Track: coord(), Lo: lo, Hi: lo + x>>1%7 - 1,
			})
		}
		for n := next() % 4; n > 0; n-- {
			nr.Vias = append(nr.Vias, pt())
		}
		for n := next() % 4; n > 0; n-- {
			nr.Terminals = append(nr.Terminals, pt())
		}
		res.Routes = append(res.Routes, nr)
	}
	var regions []verify.Region
	for n := next() % 4; n > 0; n-- {
		mask := next()
		c0, r0 := coord(), coord()
		regions = append(regions, verify.Region{
			Cols: geom.Iv(c0, c0+next()%6-1), Rows: geom.Iv(r0, r0+next()%6-1),
			BlocksH: mask&1 != 0, BlocksV: mask&2 != 0,
		})
	}
	return res, regions
}

var errFailed = errors.New("net failed")

// randomCases is the size of the seeded random differential sweep.
func randomCases() int {
	if testing.Short() {
		return 2_000
	}
	return 20_000
}

func TestDifferentialRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	buf := make([]byte, 160)
	verdicts := map[bool]int{}
	for i := 0; i < randomCases(); i++ {
		b := buf[:16+rng.Intn(len(buf)-16)]
		rng.Read(b)
		res, regions := decode(b)
		if d := differ(res, regions); d != "" {
			t.Fatalf("case %d (input %x): %s", i, b, d)
		}
		verdicts[verify.LevelB(res, regions) == nil]++
	}
	// Both verdicts must be common, or the sweep tests little.
	if verdicts[true] < randomCases()/10 || verdicts[false] < randomCases()/10 {
		t.Errorf("skewed sweep: %d clean, %d rejected", verdicts[true], verdicts[false])
	}
}

func FuzzVerify(f *testing.F) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 16; i++ {
		b := make([]byte, 8+8*i)
		rng.Read(b)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		res, regions := decode(b)
		if d := differ(res, regions); d != "" {
			t.Fatal(d)
		}
	})
}
