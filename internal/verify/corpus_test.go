package verify_test

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"overcell/internal/core"
	"overcell/internal/flow"
	"overcell/internal/gen"
	"overcell/internal/grid"
	"overcell/internal/robust"
	"overcell/internal/tig"
	"overcell/internal/verify"
)

// The mutation corpus injects seeded corruptions into real routed
// results and checks that verify notices the ones it must.

// routedCase is one real routed result with the obstacle regions, in
// grid index space, that its flow verified it against.
type routedCase struct {
	name    string
	res     *core.Result
	regions []verify.Region
}

// partialNetBudget is the per-net expansion cap of the partial corpus
// run: tight enough that a dozen ami33 nets fail, four of them after
// committing partial metal.
const partialNetBudget = 200

// routedCases routes the corpus instances once per test binary: the
// proposed flow on ami33, the channel-free flow on ex3, and the proposed
// flow on ami33 under a tight per-net budget with partial results
// accepted, so that failed nets carry partial metal.
var routedCases = sync.OnceValues(func() ([]routedCase, error) {
	runs := []struct {
		name string
		inst func() (*gen.Instance, error)
		flow func(*gen.Instance, flow.Options) (*flow.Result, error)
		opt  flow.Options
	}{
		{"proposed/ami33", gen.Ami33Like, flow.Proposed, flow.Options{}},
		{"channelfree/ex3", gen.Ex3Like, flow.ChannelFree, flow.Options{}},
		{"proposed/ami33/partial", gen.Ami33Like, flow.Proposed, flow.Options{
			AllowPartial: true,
			Limits:       robust.Limits{NetExpansions: partialNetBudget},
		}},
	}
	var out []routedCase
	for _, r := range runs {
		inst, err := r.inst()
		if err != nil {
			return nil, err
		}
		res, err := r.flow(inst, r.opt)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", r.name, err)
		}
		out = append(out, routedCase{r.name, res.LevelB, regions(inst, res.BGrid)})
	}
	return out, nil
})

func corpusBases(tb testing.TB) []routedCase {
	tb.Helper()
	cases, err := routedCases()
	if err != nil {
		tb.Fatal(err)
	}
	return cases
}

// regions is the obstacle specification in grid index space, built the
// way the flow builds it for its own verification.
func regions(inst *gen.Instance, g *grid.Grid) []verify.Region {
	var out []verify.Region
	for _, o := range inst.Obstacles() {
		cols, rows, ok := g.IndexWindow(o.Rect)
		if !ok {
			continue
		}
		out = append(out, verify.Region{
			Cols: cols, Rows: rows,
			BlocksH: o.Mask&grid.MaskH != 0,
			BlocksV: o.Mask&grid.MaskV != 0,
		})
	}
	return out
}

// mutant is one corrupted copy of a routed result.
type mutant struct {
	name    string // base/kind/index
	kind    string
	res     *core.Result
	regions []verify.Region
	// check is the verify function the corruption is certain to fail,
	// with want a substring of its error; nil when the verdict depends
	// on the surrounding geometry.
	check func(*core.Result, []verify.Region) error
	want  string
}

// mutation corrupts a copy of rc. It reports false when rc offers
// nothing to corrupt in this way.
type mutation func(rng *rand.Rand, rc routedCase, m *mutant) bool

// mutations is the registry of corruption kinds, in a fixed order so
// the corpus is the same on every run.
var mutations = []struct {
	kind string
	fn   mutation
}{
	{"foreign-wire", foreignWire},
	{"foreign-via", foreignPoint(false)},
	{"foreign-terminal", foreignPoint(true)},
	{"drop-via", dropVia},
	{"crossing-without-via", crossingWithoutVia},
	{"shorten-segment", reshape(shorten)},
	{"remove-segment", removeSegment},
	{"extend-segment", reshape(extend)},
	{"shift-segment", reshape(shift)},
	{"wire-in-region", wireInRegion},
	{"via-in-region", viaInRegion},
	{"partial-conflict", partialConflict},
}

// mutants builds up to perKind corruptions of each kind for each base.
func mutants(bases []routedCase, perKind int) []mutant {
	var out []mutant
	for bi, rc := range bases {
		for ki, mu := range mutations {
			rng := rand.New(rand.NewSource(int64(1000*bi + ki)))
			for i := 0; i < perKind; i++ {
				m := mutant{
					name:    fmt.Sprintf("%s/%s/%d", rc.name, mu.kind, i),
					kind:    mu.kind,
					regions: rc.regions,
				}
				if !mu.fn(rng, rc, &m) {
					break
				}
				out = append(out, m)
			}
		}
	}
	return out
}

// edit returns a copy of res whose route i is a deep copy, safe to
// mutate; the other routes are shared.
func edit(res *core.Result, i int) (*core.Result, *core.NetRoute) {
	out := *res
	out.Routes = slices.Clone(res.Routes)
	nr := *res.Routes[i]
	nr.Segments = slices.Clone(nr.Segments)
	nr.Vias = slices.Clone(nr.Vias)
	nr.Terminals = slices.Clone(nr.Terminals)
	out.Routes[i] = &nr
	return &out, &nr
}

// pick returns a random index of a route satisfying ok, or -1.
func pick(rng *rand.Rand, routes []*core.NetRoute, ok func(*core.NetRoute) bool) int {
	var idx []int
	for i, nr := range routes {
		if ok(nr) {
			idx = append(idx, i)
		}
	}
	if len(idx) == 0 {
		return -1
	}
	return idx[rng.Intn(len(idx))]
}

func hasSegments(nr *core.NetRoute) bool { return len(nr.Segments) > 0 }

// foreign picks a route of a net other than routes[i]'s that satisfies
// ok.
func foreign(rng *rand.Rand, routes []*core.NetRoute, i int, ok func(*core.NetRoute) bool) int {
	id := routes[i].Net.ID
	return pick(rng, routes, func(nr *core.NetRoute) bool { return nr.Net.ID != id && ok(nr) })
}

func anyRoute(*core.NetRoute) bool { return true }

// piece returns a random non-empty sub-interval of s on its track.
func piece(rng *rand.Rand, s core.Segment) core.Segment {
	a := s.Lo + rng.Intn(s.Hi-s.Lo+1)
	b := a + rng.Intn(s.Hi-a+1)
	return core.Segment{Horizontal: s.Horizontal, Track: s.Track, Lo: a, Hi: b}
}

// at returns the grid point k along s.
func at(s core.Segment, k int) tig.Point {
	if s.Horizontal {
		return tig.Point{Col: k, Row: s.Track}
	}
	return tig.Point{Col: s.Track, Row: k}
}

// foreignWire copies part of one net's wire into another net.
func foreignWire(rng *rand.Rand, rc routedCase, m *mutant) bool {
	i := pick(rng, rc.res.Routes, hasSegments)
	if i < 0 {
		return false
	}
	j := foreign(rng, rc.res.Routes, i, anyRoute)
	if j < 0 {
		return false
	}
	segs := rc.res.Routes[i].Segments
	s := piece(rng, segs[rng.Intn(len(segs))])
	res, nr := edit(rc.res, j)
	nr.Segments = append(nr.Segments, s)
	m.res, m.check, m.want = res, conflicts, "wire conflict"
	return true
}

// foreignPoint puts another net's via (or terminal) on a wire.
func foreignPoint(terminal bool) mutation {
	return func(rng *rand.Rand, rc routedCase, m *mutant) bool {
		i := pick(rng, rc.res.Routes, hasSegments)
		if i < 0 {
			return false
		}
		j := foreign(rng, rc.res.Routes, i, anyRoute)
		if j < 0 {
			return false
		}
		segs := rc.res.Routes[i].Segments
		s := segs[rng.Intn(len(segs))]
		p := at(s, s.Lo+rng.Intn(s.Hi-s.Lo+1))
		res, nr := edit(rc.res, j)
		if terminal {
			nr.Terminals = append(nr.Terminals, p)
		} else {
			nr.Vias = append(nr.Vias, p)
		}
		m.res, m.check, m.want = res, conflicts, "conflict"
		return true
	}
}

// dropVia deletes one of a net's vias.
func dropVia(rng *rand.Rand, rc routedCase, m *mutant) bool {
	i := pick(rng, rc.res.Routes, func(nr *core.NetRoute) bool { return len(nr.Vias) > 0 })
	if i < 0 {
		return false
	}
	res, nr := edit(rc.res, i)
	k := rng.Intn(len(nr.Vias))
	nr.Vias = slices.Delete(nr.Vias, k, k+1)
	m.res = res
	return true
}

// crossingWithoutVia rewires a routed net as an L between two of its
// terminals whose legs cross one point past the corner, with no via
// there: a perpendicular crossing that must not connect.
func crossingWithoutVia(rng *rand.Rand, rc routedCase, m *mutant) bool {
	i := pick(rng, rc.res.Routes, func(nr *core.NetRoute) bool {
		return nr.Err == nil && len(nr.Terminals) >= 2 && diagonal(nr.Terminals) > 0
	})
	if i < 0 {
		return false
	}
	res, nr := edit(rc.res, i)
	t0, t1 := nr.Terminals[0], nr.Terminals[diagonal(nr.Terminals)]
	h := core.Segment{Horizontal: true, Track: t0.Row, Lo: min(t0.Col, t1.Col), Hi: max(t0.Col, t1.Col)}
	if t1.Col > t0.Col {
		h.Hi++
	} else {
		h.Lo--
	}
	v := core.Segment{Track: t1.Col, Lo: min(t0.Row, t1.Row), Hi: max(t0.Row, t1.Row)}
	if t0.Row > t1.Row {
		v.Hi++
	} else {
		v.Lo--
	}
	nr.Terminals = []tig.Point{t0, t1}
	nr.Segments = []core.Segment{h, v}
	nr.Vias = nil
	m.res, m.check = res, connectivity
	m.want = fmt.Sprintf("verify: net %q terminal %v electrically disconnected", nr.Net.Name, t1)
	return true
}

// diagonal returns the index of the first terminal sharing neither row
// nor column with the first, or 0 if there is none.
func diagonal(ts []tig.Point) int {
	for k, p := range ts[1:] {
		if p.Col != ts[0].Col && p.Row != ts[0].Row {
			return k + 1
		}
	}
	return 0
}

// reshape applies f to one random segment of a random net.
func reshape(f func(*rand.Rand, *core.Segment)) mutation {
	return func(rng *rand.Rand, rc routedCase, m *mutant) bool {
		i := pick(rng, rc.res.Routes, hasSegments)
		if i < 0 {
			return false
		}
		res, nr := edit(rc.res, i)
		f(rng, &nr.Segments[rng.Intn(len(nr.Segments))])
		m.res = res
		return true
	}
}

// shorten cuts up to the whole length off one end of a segment; a
// one-point segment becomes empty.
func shorten(rng *rand.Rand, s *core.Segment) {
	d := 1 + rng.Intn(s.Hi-s.Lo+1)
	if rng.Intn(2) == 0 {
		s.Lo += d
	} else {
		s.Hi -= d
	}
}

// extend lengthens one end of a segment by one to three points.
func extend(rng *rand.Rand, s *core.Segment) {
	d := 1 + rng.Intn(3)
	if rng.Intn(2) == 0 {
		s.Lo -= d
	} else {
		s.Hi += d
	}
}

// shift moves a segment one track sideways or one point along.
func shift(rng *rand.Rand, s *core.Segment) {
	d := 2*rng.Intn(2) - 1
	if rng.Intn(2) == 0 {
		s.Track += d
	} else {
		s.Lo += d
		s.Hi += d
	}
}

// removeSegment deletes one of a net's segments.
func removeSegment(rng *rand.Rand, rc routedCase, m *mutant) bool {
	i := pick(rng, rc.res.Routes, hasSegments)
	if i < 0 {
		return false
	}
	res, nr := edit(rc.res, i)
	k := rng.Intn(len(nr.Segments))
	nr.Segments = slices.Delete(nr.Segments, k, k+1)
	m.res = res
	return true
}

// blocking returns a random region that blocks at least one layer.
func blocking(rng *rand.Rand, rs []verify.Region) (verify.Region, bool) {
	var ok []verify.Region
	for _, r := range rs {
		if (r.BlocksH || r.BlocksV) && !r.Cols.Empty() && !r.Rows.Empty() {
			ok = append(ok, r)
		}
	}
	if len(ok) == 0 {
		return verify.Region{}, false
	}
	return ok[rng.Intn(len(ok))], true
}

// wireInRegion gives a random net a wire across an obstacle region on a
// layer the region blocks.
func wireInRegion(rng *rand.Rand, rc routedCase, m *mutant) bool {
	r, ok := blocking(rng, rc.regions)
	if !ok {
		return false
	}
	s := core.Segment{Horizontal: true, Track: r.Rows.Lo + rng.Intn(r.Rows.Len()),
		Lo: r.Cols.Lo - rng.Intn(3), Hi: r.Cols.Hi + rng.Intn(3)}
	if !r.BlocksH {
		s = core.Segment{Track: r.Cols.Lo + rng.Intn(r.Cols.Len()),
			Lo: r.Rows.Lo - rng.Intn(3), Hi: r.Rows.Hi + rng.Intn(3)}
	}
	res, nr := edit(rc.res, rng.Intn(len(rc.res.Routes)))
	nr.Segments = append(nr.Segments, s)
	m.res, m.check, m.want = res, verify.AvoidsRegions, "wire enters exclusion region"
	return true
}

// viaInRegion gives a random net a via inside an obstacle region.
func viaInRegion(rng *rand.Rand, rc routedCase, m *mutant) bool {
	r, ok := blocking(rng, rc.regions)
	if !ok {
		return false
	}
	p := tig.Point{Col: r.Cols.Lo + rng.Intn(r.Cols.Len()), Row: r.Rows.Lo + rng.Intn(r.Rows.Len())}
	res, nr := edit(rc.res, rng.Intn(len(rc.res.Routes)))
	nr.Vias = append(nr.Vias, p)
	m.res, m.check, m.want = res, verify.AvoidsRegions, "via inside exclusion region"
	return true
}

// partialConflict makes a failed net's partial metal clash with another
// net, copying a wire one way or the other.
func partialConflict(rng *rand.Rand, rc routedCase, m *mutant) bool {
	f := pick(rng, rc.res.Routes, func(nr *core.NetRoute) bool { return nr.Err != nil && hasSegments(nr) })
	if f < 0 {
		return false
	}
	j := foreign(rng, rc.res.Routes, f, hasSegments)
	if j < 0 {
		return false
	}
	from, to := f, j
	if rng.Intn(2) == 0 {
		from, to = j, f
	}
	segs := rc.res.Routes[from].Segments
	s := piece(rng, segs[rng.Intn(len(segs))])
	res, nr := edit(rc.res, to)
	nr.Segments = append(nr.Segments, s)
	m.res, m.check, m.want = res, conflicts, "wire conflict"
	return true
}

func conflicts(res *core.Result, _ []verify.Region) error { return verify.Conflicts(res) }

func connectivity(res *core.Result, _ []verify.Region) error { return verify.Connectivity(res) }

// corpusPerKind is the number of corruptions of each kind per base.
func corpusPerKind() int {
	if testing.Short() {
		return 3
	}
	return 10
}

func TestCorpusBasesVerifyClean(t *testing.T) {
	bases := corpusBases(t)
	for _, rc := range bases {
		if err := verify.LevelB(rc.res, rc.regions); err != nil {
			t.Errorf("%s: unmutated result rejected: %v", rc.name, err)
		}
		if len(rc.regions) == 0 {
			t.Errorf("%s: no obstacle regions to intrude on", rc.name)
		}
	}
	partial := bases[len(bases)-1]
	withMetal := 0
	for _, nr := range partial.res.Routes {
		if nr.Err != nil && hasSegments(nr) {
			withMetal++
		}
	}
	if withMetal == 0 {
		t.Errorf("%s: no failed net carries partial metal", partial.name)
	}
}

func TestMutationCorpus(t *testing.T) {
	corpus := mutants(corpusBases(t), corpusPerKind())
	total, caught := map[string]int{}, map[string]int{}
	for _, m := range corpus {
		total[m.kind]++
		err := verify.LevelB(m.res, m.regions)
		if err != nil {
			caught[m.kind]++
		}
		if m.check == nil {
			continue
		}
		if err == nil {
			t.Errorf("%s: LevelB passed a certain corruption", m.name)
		}
		if cerr := m.check(m.res, m.regions); cerr == nil || !strings.Contains(cerr.Error(), m.want) {
			t.Errorf("%s: got %v, want an error containing %q", m.name, cerr, m.want)
		}
	}
	kinds := make([]string, 0, len(total))
	for k := range total {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		t.Logf("%-22s %3d of %3d caught", k, caught[k], total[k])
	}
	// Every kind occurs, and those whose verdict depends on the
	// geometry around them still bite.
	for _, mu := range mutations {
		if total[mu.kind] == 0 {
			t.Errorf("no %s corruption in the corpus", mu.kind)
		}
	}
	for _, k := range []string{"drop-via", "shorten-segment", "remove-segment", "shift-segment"} {
		if caught[k] == 0 {
			t.Errorf("no %s corruption caught", k)
		}
	}
}
