// Command benchjson measures the repository's headline workloads and
// writes the results as a machine-readable JSON file, one snapshot of
// the performance trajectory per tag:
//
//	benchjson -tag pr2                 writes BENCH_pr2.json
//	benchjson -tag dev -runs 3         best-of-3 timings
//	benchjson -o /tmp/out.json
//
// Unlike `go test -bench`, the output is a stable, diffable document
// (obs.BenchFile) meant to be committed alongside the change that
// produced it, so regressions show up in review as JSON diffs — and
// as gated deltas via cmd/benchdiff. Snapshots carry the measuring
// host's metadata (GOOS/GOARCH, CPU and GOMAXPROCS counts) so that
// cross-machine comparisons are detected rather than mistaken for
// regressions. The
// workloads mirror the root benchmarks: the Table 2 flow comparison on
// all three instances, the channel-free variant, the maze-vs-TIG
// search comparison, and traced-vs-untraced plus budgeted-vs-untraced
// pairs quantifying the observability and budget-metering overhead.
//
// -deadline and -budget bound each workload run (a safety rail when
// benchmarking hostile or oversized instances); a tripped budget fails
// the workload rather than silently snapshotting a partial route.
// -only restricts the run to workloads whose name contains the given
// substring (e.g. -only levelb/ for just the level B row).
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"overcell/internal/core"
	"overcell/internal/flow"
	"overcell/internal/gen"
	"overcell/internal/geom"
	"overcell/internal/grid"
	"overcell/internal/maze"
	"overcell/internal/metrics"
	"overcell/internal/netlist"
	"overcell/internal/obs"
	obsmetrics "overcell/internal/obs/metrics"
	"overcell/internal/obs/perf"
	"overcell/internal/robust"
	"overcell/internal/serve"
	"overcell/internal/serve/journal"
	"overcell/internal/tig"
)

// guard holds the -deadline/-budget limits applied to every flow
// workload. Zero means unbounded, matching pre-flag behaviour.
var guard robust.Limits

func main() {
	tag := flag.String("tag", "dev", "snapshot tag (becomes BENCH_<tag>.json)")
	out := flag.String("o", "", "output file (default BENCH_<tag>.json)")
	runs := flag.Int("runs", 1, "timing runs per workload; the fastest is kept")
	only := flag.String("only", "", "run only workloads whose name contains this substring")
	flag.DurationVar(&guard.Timeout, "deadline", 0, "wall-clock budget per workload run (0 = none)")
	flag.Int64Var(&guard.NetExpansions, "budget", 0, "search-expansion budget per net (0 = unlimited)")
	flag.Parse()
	if *runs < 1 {
		*runs = 1
	}
	if *out == "" {
		*out = "BENCH_" + *tag + ".json"
	}

	file := obs.BenchFile{
		Schema:      obs.BenchSchemaVersion,
		Tag:         *tag,
		GoVersion:   runtime.Version(),
		GeneratedAt: time.Now().UTC().Format(time.RFC3339), //oc:clock-ok report timestamp is bench metadata, not a routing input
		Host: &obs.BenchHost{
			GOOS:       runtime.GOOS,
			GOARCH:     runtime.GOARCH,
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			NumCPU:     runtime.NumCPU(),
		},
	}
	for _, b := range workloads() {
		if *only != "" && !strings.Contains(b.name, *only) {
			continue
		}
		entry, err := measure(b, *runs)
		if err != nil {
			die(fmt.Errorf("%s: %w", b.name, err))
		}
		file.Benchmarks = append(file.Benchmarks, entry)
		fmt.Printf("%-28s %12d ns/op %10d allocs/op\n", entry.Name, entry.NsPerOp, entry.AllocsPerOp)
	}

	f, err := os.Create(*out)
	if err != nil {
		die(err)
	}
	defer f.Close()
	if err := obs.WriteBench(f, &file); err != nil {
		die(err)
	}
	fmt.Println("wrote", *out)
}

func die(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}

// workload is one measured unit: fn runs the work once and returns
// result metrics (and, for perf-instrumented workloads, the per-phase
// attribution rows) to attach to the entry.
type workload struct {
	name string
	fn   func() (map[string]float64, []obs.BenchPhase, error)
}

// measure times a workload runs times, keeping the fastest run's
// wall time and its allocation delta (runtime.ReadMemStats before and
// after, after a forced GC so prior garbage is not charged to us).
func measure(b workload, runs int) (obs.BenchEntry, error) {
	entry := obs.BenchEntry{Name: b.name, Runs: runs}
	for i := 0; i < runs; i++ {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now() //oc:clock-ok bench harness measures real wall time by design
		m, phases, err := b.fn()
		elapsed := time.Since(start) //oc:clock-ok bench harness measures real wall time by design
		runtime.ReadMemStats(&after)
		if err != nil {
			return entry, err
		}
		ns := elapsed.Nanoseconds()
		if i == 0 || ns < entry.NsPerOp {
			entry.NsPerOp = ns
			entry.BytesPerOp = after.TotalAlloc - before.TotalAlloc
			entry.AllocsPerOp = after.Mallocs - before.Mallocs
			entry.Metrics = m
			entry.Phases = phases
		}
	}
	return entry, nil
}

func workloads() []workload {
	var ws []workload
	for _, m := range []struct {
		name string
		mk   func() (*gen.Instance, error)
	}{
		{"ami33", gen.Ami33Like},
		{"xerox", gen.XeroxLike},
		{"ex3", gen.Ex3Like},
	} {
		mk := m.mk
		ws = append(ws, workload{"table2/" + m.name, func() (map[string]float64, []obs.BenchPhase, error) {
			base, err := runFlow(mk, flow.TwoLayerBaseline, flow.Options{})
			if err != nil {
				return nil, nil, err
			}
			prop, err := runFlow(mk, flow.Proposed, flow.Options{})
			if err != nil {
				return nil, nil, err
			}
			c := metrics.Comparison{Base: base, New: prop}
			return map[string]float64{
				"area-red-pct": c.AreaReduction(),
				"wire-red-pct": c.WireReduction(),
				"via-red-pct":  c.ViaReduction(),
				"expanded":     float64(prop.LevelB.Expanded),
			}, nil, nil
		}})
	}
	ws = append(ws, workload{"channelfree/ami33", func() (map[string]float64, []obs.BenchPhase, error) {
		base, err := runFlow(gen.Ami33Like, flow.Proposed, flow.Options{})
		if err != nil {
			return nil, nil, err
		}
		cf, err := runFlow(gen.Ami33Like, flow.ChannelFree, flow.Options{})
		if err != nil {
			return nil, nil, err
		}
		c := metrics.Comparison{Base: base, New: cf}
		return map[string]float64{
			"area-red-pct": c.AreaReduction(),
			"expanded":     float64(cf.LevelB.Expanded),
		}, nil, nil
	}})
	// The overhead pair: the same flow with tracing off and with a
	// stats aggregate attached. Comparing the two ns/op values in the
	// JSON is the standing regression check on observability cost.
	ws = append(ws, workload{"proposed/ami33/untraced", func() (map[string]float64, []obs.BenchPhase, error) {
		res, err := runFlow(gen.Ami33Like, flow.Proposed, flow.Options{})
		if err != nil {
			return nil, nil, err
		}
		return map[string]float64{"expanded": float64(res.LevelB.Expanded)}, nil, nil
	}})
	// The traced entry doubles as the perf-attributed one: its Phases
	// break the flow down by level-a/level-b/verify.
	ws = append(ws, workload{"proposed/ami33/traced", func() (map[string]float64, []obs.BenchPhase, error) {
		col := obsmetrics.NewTracer(nil)
		pc := perf.New(perf.Options{Run: "proposed/ami33/traced"})
		res, err := runFlow(gen.Ami33Like, flow.Proposed, flow.Options{Tracer: col, Perf: pc})
		if err != nil {
			return nil, nil, err
		}
		pc.Finish()
		return map[string]float64{
			"expanded": float64(res.LevelB.Expanded),
			"events":   float64(col.Events()),
		}, pc.Report().BenchPhases(), nil
	}})
	// The budget pair: the same flow metered by an active budget whose
	// limits sit far above the workload's actual work, so every Charge
	// executes but nothing trips. Comparing its ns/op against
	// proposed/ami33/untraced is the standing regression check that
	// budget metering stays under 2% overhead.
	ws = append(ws, workload{"proposed/ami33/budgeted", func() (map[string]float64, []obs.BenchPhase, error) {
		res, err := runFlow(gen.Ami33Like, flow.Proposed, flow.Options{
			Limits: robust.Limits{
				NetExpansions:   1 << 30,
				TotalExpansions: 1 << 40,
				Timeout:         time.Hour,
			},
		})
		if err != nil {
			return nil, nil, err
		}
		return map[string]float64{"expanded": float64(res.LevelB.Expanded)}, nil, nil
	}})
	// The level B router alone on a dense instance: the row the
	// allocation gate watches for the router's hot path.
	ws = append(ws, workload{"levelb/nets100/seq", levelB})
	// The durability pair: the identical burst of accepted-and-waited
	// runs through an in-process ocserved with the lifecycle journal
	// off and on (SyncAlways, the production default). The ns/op delta
	// divided by the "runs" metric is the journal's per-run cost —
	// three fsynced appends (accepted, started, finished) — the number
	// the README's fsync trade-off note cites.
	ws = append(ws, workload{"serve/journal/off", func() (map[string]float64, []obs.BenchPhase, error) {
		return serveRuns("", 0)
	}})
	ws = append(ws, workload{"serve/journal/on", func() (map[string]float64, []obs.BenchPhase, error) {
		dir, err := os.MkdirTemp("", "ocbench-journal")
		if err != nil {
			return nil, nil, err
		}
		defer os.RemoveAll(dir)
		return serveRuns(dir, 0)
	}})
	// The streaming pair: the identical burst with run telemetry (event
	// broker + congestion series) fully disabled and at its default. No
	// SSE client is attached, so the delta is the standing regression
	// check on what live telemetry costs every run whether or not
	// anyone is watching.
	ws = append(ws, workload{"serve/stream/off", func() (map[string]float64, []obs.BenchPhase, error) {
		return serveRuns("", -1)
	}})
	ws = append(ws, workload{"serve/stream/on", func() (map[string]float64, []obs.BenchPhase, error) {
		return serveRuns("", 0)
	}})
	ws = append(ws, workload{"search/maze-vs-tig", mazeVsTIG})
	return ws
}

// serveRunsCount is the submission burst each serve/journal entry
// pushes through the server; the per-run journal cost is the pair's
// ns/op delta divided by this.
const serveRunsCount = 24

// serveRuns boots an in-process ocserved (journaled when dir is
// non-empty, event streaming disabled when streamCap < 0), submits
// serveRunsCount waited runs of a tiny instance over real HTTP, and
// verifies every one finishes done.
func serveRuns(dir string, streamCap int) (map[string]float64, []obs.BenchPhase, error) {
	inst, err := gen.Generate(gen.Params{
		Name: "tiny", Seed: 7,
		Rows: 2, Cells: 6,
		CellWMin: 240, CellWMax: 420, CellHMin: 140, CellHMax: 220,
		RowGap: 64, Margin: 48,
		SignalNets: 10, LevelANets: []int{3},
		RailHalfWidth: 6,
	})
	if err != nil {
		return nil, nil, err
	}
	var payload bytes.Buffer
	if err := inst.WriteJSON(&payload); err != nil {
		return nil, nil, err
	}
	cfg := serve.Config{MaxRuns: 1, KeepRuns: serveRunsCount + 1, StreamCap: streamCap}
	if dir != "" {
		j, _, err := journal.Open(filepath.Join(dir, "wal.ndjson"), journal.Options{Sync: journal.SyncAlways})
		if err != nil {
			return nil, nil, err
		}
		defer j.Close()
		cfg.Journal = j
	}
	ts := httptest.NewServer(serve.New(cfg).Handler())
	defer ts.Close()
	for i := 0; i < serveRunsCount; i++ {
		resp, err := http.Post(ts.URL+"/runs?flow=baseline&wait=1", "application/json",
			bytes.NewReader(payload.Bytes()))
		if err != nil {
			return nil, nil, err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, nil, err
		}
		if resp.StatusCode != 200 || !bytes.Contains(body, []byte(`"state": "done"`)) {
			return nil, nil, fmt.Errorf("run %d = %d %.120s", i, resp.StatusCode, body)
		}
	}
	return map[string]float64{"runs": serveRunsCount}, nil, nil
}

// levelB routes a dense synthetic instance (96x96 grid, 100
// two-terminal nets, deterministic LCG placement) straight through
// internal/core. A perf collector brackets the route, so the entry's
// Phases carry the run's wall time and allocations.
func levelB() (map[string]float64, []obs.BenchPhase, error) {
	g, err := grid.Uniform(96, 96, 10)
	if err != nil {
		return nil, nil, err
	}
	nl := netlist.New()
	seed := uint64(13)
	next := func(n int) int {
		seed = seed*6364136223846793005 + 1442695040888963407
		return int((seed >> 33) % uint64(n))
	}
	used := map[geom.Point]bool{}
	pick := func() geom.Point {
		for {
			p := geom.Pt(next(96)*10, next(96)*10)
			if used[p] {
				continue
			}
			used[p] = true
			return p
		}
	}
	for i := 0; i < 100; i++ {
		nl.AddPoints(fmt.Sprintf("n%d", i), netlist.Signal, pick(), pick())
	}
	cfg := core.DefaultConfig()
	if !guard.Zero() {
		cfg.Budget = robust.NewBudget(nil, guard)
	}
	pc := perf.New(perf.Options{Run: "levelb/nets100/seq"})
	pc.Start()
	res, err := core.New(g, cfg).Route(nl.Nets())
	if err != nil {
		return nil, nil, err
	}
	pc.Finish()
	return map[string]float64{
		"expanded": float64(res.Expanded),
		"wire":     float64(res.WireLength),
		"failed":   float64(res.Failed),
	}, pc.Report().BenchPhases(), nil
}

func runFlow(mk func() (*gen.Instance, error),
	f func(*gen.Instance, flow.Options) (*flow.Result, error), opt flow.Options) (*flow.Result, error) {
	if opt.Limits.Zero() {
		opt.Limits = guard
	}
	inst, err := mk()
	if err != nil {
		return nil, err
	}
	return f(inst, opt)
}

// mazeVsTIG mirrors BenchmarkMazeVsTIG: identical two-terminal
// connections on an obstacle field solved by both searches, comparing
// nodes expanded per connection.
func mazeVsTIG() (map[string]float64, []obs.BenchPhase, error) {
	g, err := grid.Uniform(96, 96, 10)
	if err != nil {
		return nil, nil, err
	}
	// A deterministic obstacle field and connection set (LCG so the
	// workload never depends on math/rand defaults).
	seed := uint64(21)
	next := func(n int) int {
		seed = seed*6364136223846793005 + 1442695040888963407
		return int((seed >> 33) % uint64(n))
	}
	for k := 0; k < 12; k++ {
		x, y := next(80)+5, next(80)+5
		g.BlockRect(geom.R(x*10, y*10, (x+next(8))*10, (y+next(8))*10), grid.MaskBoth)
	}
	var conns [][2]tig.Point
	for len(conns) < 60 {
		a := tig.Point{Col: next(96), Row: next(96)}
		c := tig.Point{Col: next(96), Row: next(96)}
		if a == c || !g.PointFree(a.Col, a.Row) || !g.PointFree(c.Col, c.Row) {
			continue
		}
		conns = append(conns, [2]tig.Point{a, c})
	}
	full := tig.Config{ColBounds: geom.Iv(0, 95), RowBounds: geom.Iv(0, 95)}
	cb, rb := geom.Iv(0, 95), geom.Iv(0, 95)
	tigNodes, mazeNodes, solved := 0, 0, 0
	for _, c := range conns {
		tr, tok := tig.Search(g, c[0], c[1], full)
		mr, mok := maze.Route(g, c[0], c[1], cb, rb)
		if !tok || !mok {
			continue
		}
		solved++
		tigNodes += tr.Expanded
		mazeNodes += mr.Expanded
	}
	if solved == 0 {
		return nil, nil, fmt.Errorf("no connection solved by both searches")
	}
	return map[string]float64{
		"connections":     float64(solved),
		"tig-nodes/conn":  float64(tigNodes) / float64(solved),
		"maze-nodes/conn": float64(mazeNodes) / float64(solved),
	}, nil, nil
}
