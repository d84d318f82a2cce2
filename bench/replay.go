package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"time"

	"overcell/internal/channel"
	"overcell/internal/core"
	"overcell/internal/flow"
	"overcell/internal/gen"
	"overcell/internal/geom"
	"overcell/internal/global"
	"overcell/internal/grid"
	"overcell/internal/maze"
	"overcell/internal/serve/journal"
	"overcell/internal/steiner"
	"overcell/internal/tig"
	"overcell/internal/verify"
)

// A replay times one layer alone on inputs pinned from a traced op:
// searches between seeded free points of its final routed grid, the
// Steiner construction of its nets, grid queries and writes, the
// verifier, the channel stage on its instances, the journal append of
// its records and, for the batch workloads, the same runs sent
// through an in-process server.
const (
	// pairsPerResult is how many search pairs each routed grid gives.
	pairsPerResult = 8
	// pairSpan bounds a pair's offset and pairMargin widens its window,
	// both in tracks, so that the replayed searches are sized like the
	// router's own first-window searches.
	pairSpan   = 24
	pairMargin = 4
	// queryReps repeats the grid queries for timer resolution.
	queryReps = 8
)

// replayer runs the layer replays of a traced run and accumulates
// their samples.
type replayer struct {
	seed  int64
	query string // the serve replay's submission
	dir   string
	jr    *journal.Journal
	jpath string
	srv   *server // nil when the run has no serve replay

	tigUS, mazeUS, rstUS, appendUS []float64
	queryT, commitT                time.Duration
	queries, commits, journalRuns  int
	verifyT, assignT, channelT     time.Duration
	problems, tracks, fallbacks    int
	sv                             serveStats
}

// newReplayer prepares the replays of a run routed with opts; with
// viaServer the results are also sent through an in-process server.
func newReplayer(cfg runCfg, opts flow.Options, viaServer bool) (*replayer, error) {
	dir, err := os.MkdirTemp(filepath.Join(cfg.workDir, "tmp"), "replay-")
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	rp := &replayer{seed: cfg.seed, dir: dir, jpath: filepath.Join(dir, "replay.ndjson")}
	rp.jr, _, err = journal.Open(rp.jpath, journal.Options{Sync: journal.SyncNever})
	if err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("replay: %w", err)
	}
	rp.query = "wait=1"
	if n := opts.Limits.NetExpansions; n > 0 {
		rp.query += fmt.Sprintf("&net_budget=%d", n)
	}
	if opts.AllowPartial {
		rp.query += "&partial=1"
	}
	if !viaServer {
		return rp, nil
	}
	srvDir := filepath.Join(dir, "server")
	if err := os.Mkdir(srvDir, 0o755); err != nil {
		rp.close()
		return nil, fmt.Errorf("replay: %w", err)
	}
	if rp.srv, err = startServer(srvDir, 1); err != nil {
		rp.close()
		return nil, err
	}
	return rp, nil
}

func (rp *replayer) close() error {
	var err error
	if rp.srv != nil {
		err = rp.srv.close()
	}
	if jerr := rp.jr.Close(); err == nil {
		err = jerr
	}
	if rerr := os.RemoveAll(rp.dir); err == nil {
		err = rerr
	}
	return err
}

// timed runs f under a span named name and returns its duration.
func timed(log *spanLog, name string, parent, op int, f func()) time.Duration {
	id := log.open(name, parent, op)
	t0 := time.Now()
	f()
	d := time.Since(t0)
	log.close(id)
	return d
}

// replay runs every layer replay on the results of op. The channel
// replay re-places the instances, so it runs last.
func (rp *replayer) replay(rs []routed, log *spanLog, op int) error {
	root := log.open("replay", 0, op)
	defer log.close(root)
	rng := rand.New(rand.NewSource(drawSeed(rp.seed, op, -1, 0)))
	var seen []*gen.Instance
	for _, r := range rs {
		if lb := r.res.LevelB; lb != nil {
			g := r.res.BGrid
			timed(log, "replay.search", root, op, func() { rp.replaySearches(g, rng) })
			timed(log, "replay.steiner", root, op, func() { rp.replaySteiner(g, lb.Routes) })
			timed(log, "replay.grid", root, op, func() { rp.replayGrid(g, lb.Routes) })
			var err error
			rp.verifyT += timed(log, "replay.verify", root, op, func() { err = verify.LevelB(lb, r.regions) })
			if err != nil {
				return fmt.Errorf("replayed verify of %s: %w", r.in.inst.Name, err)
			}
		}
		canon, err := r.in.inst.CanonicalJSON()
		if err != nil {
			return fmt.Errorf("replay: %w", err)
		}
		if err := rp.appendRecords(r, canon); err != nil {
			return err
		}
		if rp.srv != nil {
			var st runStatus
			var lat time.Duration
			timed(log, "replay.serve", root, op, func() {
				st, lat, err = rp.srv.post("flow="+r.serveFlow+"&"+rp.query, canon, r.hash)
			})
			if err != nil {
				return fmt.Errorf("serve replay of %s %s: %w", r.serveFlow, r.in.inst.Name, err)
			}
			rp.sv.add(st, lat)
		}
		if !slices.Contains(seen, r.in.inst) {
			seen = append(seen, r.in.inst)
		}
	}
	for _, inst := range seen {
		var err error
		timed(log, "replay.channel", root, op, func() { err = rp.replayChannels(inst) })
		if err != nil {
			return err
		}
	}
	return nil
}

// replaySearches times MBFS and the maze baseline on the same seeded pairs
// of free grid points.
func (rp *replayer) replaySearches(g *grid.Grid, rng *rand.Rand) {
	for k := 0; k < pairsPerResult; k++ {
		a, b, ok := freePair(g, rng)
		if !ok {
			return
		}
		cols := geom.Iv(max(min(a.Col, b.Col)-pairMargin, 0), min(max(a.Col, b.Col)+pairMargin, g.NX()-1))
		rows := geom.Iv(max(min(a.Row, b.Row)-pairMargin, 0), min(max(a.Row, b.Row)+pairMargin, g.NY()-1))
		t0 := time.Now()
		tig.Search(g, a, b, tig.Config{ColBounds: cols, RowBounds: rows})
		t1 := time.Now()
		maze.Route(g, a, b, cols, rows)
		t2 := time.Now()
		rp.tigUS = append(rp.tigUS, float64(t1.Sub(t0).Nanoseconds())/1e3)
		rp.mazeUS = append(rp.mazeUS, float64(t2.Sub(t1).Nanoseconds())/1e3)
	}
}

// freePair draws two distinct free grid points at most pairSpan tracks
// apart on each axis.
func freePair(g *grid.Grid, rng *rand.Rand) (tig.Point, tig.Point, bool) {
	for try := 0; try < 200; try++ {
		a := tig.Point{Col: rng.Intn(g.NX()), Row: rng.Intn(g.NY())}
		b := tig.Point{Col: a.Col + rng.Intn(2*pairSpan+1) - pairSpan, Row: a.Row + rng.Intn(2*pairSpan+1) - pairSpan}
		if a != b && g.InRange(b.Col, b.Row) && g.PointFree(a.Col, a.Row) && g.PointFree(b.Col, b.Row) {
			return a, b, true
		}
	}
	return tig.Point{}, tig.Point{}, false
}

// replaySteiner times the rectilinear Steiner construction on every
// multi-terminal net's terminals.
func (rp *replayer) replaySteiner(g *grid.Grid, routes []*core.NetRoute) {
	for _, nr := range routes {
		if len(nr.Terminals) < 3 {
			continue
		}
		pts := make([]geom.Point, len(nr.Terminals))
		for i, t := range nr.Terminals {
			pts[i] = g.Point(t.Col, t.Row)
		}
		t0 := time.Now()
		steiner.RST(pts)
		rp.rstUS = append(rp.rstUS, float64(time.Since(t0).Nanoseconds())/1e3)
	}
}

// sink keeps the replayed grid queries observable.
var sink int

// replayGrid times the occupancy query over every net's terminal window on
// the routed grid, and committing then lifting every routed segment on
// a fresh grid with the same tracks.
func (rp *replayer) replayGrid(g *grid.Grid, routes []*core.NetRoute) {
	windows := make([][2]geom.Interval, 0, len(routes))
	for _, nr := range routes {
		if len(nr.Terminals) == 0 {
			continue
		}
		c, r := geom.Iv(nr.Terminals[0].Col, nr.Terminals[0].Col), geom.Iv(nr.Terminals[0].Row, nr.Terminals[0].Row)
		for _, t := range nr.Terminals[1:] {
			c = geom.Iv(min(c.Lo, t.Col), max(c.Hi, t.Col))
			r = geom.Iv(min(r.Lo, t.Row), max(r.Hi, t.Row))
		}
		windows = append(windows, [2]geom.Interval{c, r})
	}
	t0 := time.Now()
	for k := 0; k < queryReps; k++ {
		for _, w := range windows {
			sink += g.WireCountIn(w[0], w[1])
		}
	}
	rp.queryT += time.Since(t0)
	rp.queries += queryReps * len(windows)

	xs, ys := make([]int, g.NX()), make([]int, g.NY())
	for i := range xs {
		xs[i] = g.X(i)
	}
	for j := range ys {
		ys[j] = g.Y(j)
	}
	fresh, err := grid.New(xs, ys)
	if err != nil {
		return // the routed grid was built from the same tracks
	}
	t0 = time.Now()
	for _, lift := range []bool{false, true} {
		for _, nr := range routes {
			for _, s := range nr.Segments {
				iv := geom.Iv(s.Lo, s.Hi)
				switch {
				case s.Horizontal && !lift:
					fresh.CommitHWire(s.Track, iv)
				case s.Horizontal:
					fresh.LiftHWire(s.Track, iv)
				case !lift:
					fresh.CommitVWire(s.Track, iv)
				default:
					fresh.LiftVWire(s.Track, iv)
				}
				rp.commits++
			}
		}
	}
	rp.commitT += time.Since(t0)
}

// appendRecords appends the records ocserved writes for one run.
func (rp *replayer) appendRecords(r routed, canon []byte) error {
	rp.journalRuns++
	id := fmt.Sprintf("run-%d", rp.journalRuns)
	now := time.Now()
	res := r.res
	recs := []*journal.Record{{
		Kind: journal.KindAccepted, Run: id, Time: now,
		Flow: r.serveFlow, Name: r.in.inst.Name,
		Instance: canon, InstanceHash: gen.HashBytes(canon),
		Opts: &journal.RunOpts{},
	}, {
		Kind: journal.KindStarted, Run: id, Attempt: 1, Time: now,
	}, {
		Kind: journal.KindFinished, Run: id, Time: now,
		State: "done", ResultHash: r.hash, Attempts: 1,
		Result: &journal.ResultRecord{
			Flow: res.Flow, Area: res.Area, Width: res.Width, Height: res.Height,
			WireLength: res.WireLength, Vias: res.Vias, Degraded: res.Degraded,
		},
	}}
	for _, rec := range recs {
		t0 := time.Now()
		err := rp.jr.Append(rec)
		rp.appendUS = append(rp.appendUS, float64(time.Since(t0).Nanoseconds())/1e3)
		if err != nil {
			return fmt.Errorf("journal replay: %w", err)
		}
	}
	return nil
}

// replayChannels runs global assignment and detailed channel routing, dogleg
// falling back to greedy as the flow does, for the instance's level A
// nets at its zero-channel placement.
func (rp *replayer) replayChannels(inst *gen.Instance) error {
	l := inst.Layout
	if err := l.Place(make([]int, l.NumChannels())); err != nil {
		return fmt.Errorf("channel replay: %w", err)
	}
	t0 := time.Now()
	asg, err := global.Assign(l, inst.GlobalNets(gen.NetSpec.LevelA))
	rp.assignT += time.Since(t0)
	if err != nil {
		return fmt.Errorf("channel replay of %s: %w", inst.Name, err)
	}
	for _, p := range asg.Problems {
		if emptyProblem(p) {
			continue
		}
		rp.problems++
		t0 := time.Now()
		sol, err := channel.Dogleg(p)
		if err != nil {
			rp.fallbacks++
			sol, err = channel.Greedy(p)
		}
		rp.channelT += time.Since(t0)
		if err != nil {
			return fmt.Errorf("channel replay of %s: %w", inst.Name, err)
		}
		rp.tracks += sol.Tracks
	}
	return nil
}

func emptyProblem(p *channel.Problem) bool {
	for i := range p.Top {
		if p.Top[i] != 0 || p.Bottom[i] != 0 {
			return false
		}
	}
	return true
}

// metrics returns the replay metrics per op of a run of ops traced ops.
func (rp *replayer) metrics(ops int) map[string]float64 {
	n := float64(ops)
	var bytes int64
	if fi, err := os.Stat(rp.jpath); err == nil {
		bytes = fi.Size()
	}
	m := map[string]float64{
		"tig.search_us_p50":             median(rp.tigUS),
		"maze.route_us_p50":             median(rp.mazeUS),
		"steiner.rst_us":                median(rp.rstUS),
		"grid.query_ns":                 ratio(float64(rp.queryT.Nanoseconds()), float64(rp.queries)),
		"grid.commit_ns":                ratio(float64(rp.commitT.Nanoseconds()), float64(rp.commits)),
		"verify.levelb_ms":              ms(rp.verifyT) / n,
		"global.assign_ms":              ms(rp.assignT) / n,
		"channel.route_ms":              ms(rp.channelT) / n,
		"channel.problems":              float64(rp.problems) / n,
		"channel.tracks":                float64(rp.tracks) / n,
		"channel.greedy_fallback_ratio": ratio(float64(rp.fallbacks), float64(rp.problems)),
		"journal.append_us_p50":         median(rp.appendUS),
		"journal.bytes_per_run":         ratio(float64(bytes), float64(rp.journalRuns)),
	}
	for k, v := range rp.sv.metrics() {
		m[k] = v
	}
	return m
}
