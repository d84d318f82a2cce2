// Command bench is the repository's benchmark. It drives the router
// as a black box through the public entry points of its packages and
// reports the end-to-end and per-layer metrics named in BENCHMARK.json
// at the repository root.
//
//	bash bench/run.sh                         every workload, each in a child process
//	bash bench/run.sh --workload table2 --seed 3 --seconds 25 --trace 0
//	bash bench/run.sh --workload ripup --trace 1          traced per-layer run
//	bash bench/run.sh -runs 10 -record out/base           ten sets for compare
//	bash bench/run.sh compare out/base out/new
//
// A run with -workload measures that workload in this process and
// prints its metrics, one per line with unit and sample count, then
// one JSON object as the last line of standard output. bench/README.md
// describes the workloads, metrics and bounds.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"overcell/internal/core"
	"overcell/internal/flow"
	"overcell/internal/robust"
)

// workload is one named load the benchmark can run.
type workload struct {
	name       string
	run, trace func(runCfg) (*report, error)
}

// batches returns the batch workloads in spec order. table2 and
// channelfree route with the default options, which is what ocroute
// users get; their families screen every draw so that no default route
// runs the unbounded relaxed retry or fails.
func batches() []*batch {
	proposed := call{"proposed", flow.Proposed}
	channelFree := call{"channelfree", flow.ChannelFree}
	return []*batch{{
		name: "table2", slots: 3, draw: table1Family(&proposed, 0, 1, 2),
		calls:   []call{{"baseline", flow.TwoLayerBaseline}, proposed},
		quality: 64, traceOps: 20,
	}, {
		// Channel-free xerox-class draws are often infeasible over the
		// cells: up to 56 of their 203 nets degrade after seconds of
		// rip-up, so few of them would pass the screen.
		name: "channelfree", slots: 2, draw: table1Family(&channelFree, 0, 2),
		calls:   []call{channelFree},
		quality: 64, traceOps: 10,
	}, {
		// Rip-up, window escalation and budget trips are what this
		// workload measures, and the draws that need them are the ones
		// a screen would reject: it routes with a per-net budget and
		// accepts partial results, as ocserved's net_budget and partial
		// parameters ask. Unbudgeted, those draws' relaxed retries take
		// up to 3.7 s and a run would hold about 30 ops.
		name: "ripup", slots: 8, draw: denseFamily,
		calls:   []call{proposed},
		opts:    flow.Options{AllowPartial: true, Limits: robust.Limits{NetExpansions: netBudget}},
		quality: 64, traceOps: 5,
	}}
}

func workloads() []workload {
	var out []workload
	for _, b := range batches() {
		out = append(out, workload{b.name, b.run, b.runTrace})
	}
	srv := &serveLoad{pool: 128, traceOps: 500}
	return append(out, workload{"serve", srv.run, srv.runTrace})
}

// setupReps is how many times a timed run sets up; setup_s is the
// median of the passes.
const setupReps = 7

// setups runs and times the set-up passes of a timed run. The first
// pass sets the run up before its window; the others are spread evenly
// across the window, pass k at k/reps of it, so that their median does
// not hang on how fast the host happened to be in the seconds before
// the window. Time spent in passes is kept out of the window.
type setups struct {
	reps   int
	window time.Duration
	pass   func() error
	durs   []float64
	start  time.Time     // of the window
	paused time.Duration // window time spent in passes
}

// startSetups runs the first pass and opens the window.
func startSetups(reps int, window time.Duration, pass func() error) (*setups, error) {
	s := &setups{reps: reps, window: window, pass: pass}
	if err := s.run(); err != nil {
		return nil, err
	}
	s.start = time.Now()
	return s, nil
}

// run times one pass, which starts from a collected heap.
func (s *setups) run() error {
	runtime.GC()
	t0 := time.Now()
	err := s.pass()
	s.durs = append(s.durs, time.Since(t0).Seconds())
	return err
}

// elapsed is the window time so far, passes excluded.
func (s *setups) elapsed() time.Duration { return time.Since(s.start) - s.paused }

// next is the window time at which the next pass is due, or the end of
// the window once every pass ran.
func (s *setups) next() time.Duration {
	if len(s.durs) < s.reps {
		return time.Duration(len(s.durs)) * s.window / time.Duration(s.reps)
	}
	return s.window
}

// due runs the passes whose turn has come.
func (s *setups) due() error {
	for len(s.durs) < s.reps && s.elapsed() >= s.next() {
		t0 := time.Now()
		err := s.run()
		s.paused += time.Since(t0)
		if err != nil {
			return err
		}
	}
	return nil
}

// finish runs the passes still owed when the window closed between
// two of them and returns the duration of every pass, in seconds.
func (s *setups) finish() ([]float64, error) {
	for len(s.durs) < s.reps {
		if err := s.run(); err != nil {
			return nil, err
		}
	}
	return s.durs, nil
}

// runCfg is one run's settings.
type runCfg struct {
	seed      int64
	seconds   float64 // wall time of the measured window
	setupReps int     // set-up passes; setup_s is their median
	workDir   string
}

// report is what a workload run measured.
type report struct {
	metrics           map[string]float64
	attempted, failed int
	firstErr          error
	// samples gives the sample count behind a metric, keyed by metric
	// name or "latency" for every latency percentile.
	samples    map[string]int
	resultHash string
	notes      []string
}

// output is the last line of a run's standard output.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]valued `json:"metrics"`
}

type valued struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is one run as -record stores it for compare.
type record struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Trace      bool    `json:"trace"`
	Seconds    float64 `json:"seconds"`
	StartedNS  int64   `json:"started_unix_ns"`
	ResultHash string  `json:"result_hash,omitempty"`
	Host       host    `json:"host"`
	Output     output  `json:"output"`
}

type host struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Workers    int    `json:"workers"`
}

func thisHost() host {
	cfg := core.DefaultConfig()
	return host{runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.GOMAXPROCS(0), cfg.EffectiveWorkers()}
}

func main() {
	name := flag.String("workload", "", "run this workload in this process (default: every workload, each in a child process)")
	seed := flag.Int64("seed", 0, "workload input seed; seed 0 starts the Table 1 workloads with the paper's three instances")
	seconds := flag.Float64("seconds", 0, "measured time per run (default: run_seconds from the spec)")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer pass instead of the timed one")
	workDir := flag.String("workdir", ".bench_build", "directory for temporary files and span output")
	recordDir := flag.String("record", "", "also write each run's record into this directory, for compare")
	runs := flag.Int("runs", 1, "without -workload: full sets to run, with seeds seed, seed+1, ...")
	flag.Parse()
	if flag.Arg(0) == "compare" {
		os.Exit(compareMain(flag.Args()[1:]))
	}
	if flag.NArg() > 0 {
		die(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	sp, err := readSpec(specFile)
	if err != nil {
		die(err)
	}
	if *seconds <= 0 {
		*seconds = float64(sp.RunSeconds)
	}
	cfg := runCfg{seed: *seed, seconds: *seconds, setupReps: setupReps, workDir: *workDir}
	if *name == "" {
		if err := runAll(sp, cfg, *trace == 1, *runs, *recordDir); err != nil {
			die(err)
		}
		return
	}
	for _, wl := range workloads() {
		if wl.name == *name {
			if err := runOne(sp, wl, cfg, *trace == 1, *recordDir, os.Stdout); err != nil {
				die(err)
			}
			return
		}
	}
	die(fmt.Errorf("unknown workload %q", *name))
}

func die(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// runOne runs one workload in this process and prints its metrics,
// then the result line.
func runOne(sp *spec, wl workload, cfg runCfg, trace bool, recordDir string, w io.Writer) error {
	name := wl.name
	if err := os.MkdirAll(filepath.Join(cfg.workDir, "tmp"), 0o755); err != nil {
		return err
	}
	started := time.Now()
	fn := wl.run
	if trace {
		fn = wl.trace
	}
	rep, err := fn(cfg)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	out := output{Correct: rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]valued{}}
	h := thisHost()
	fmt.Fprintf(w, "workload %s  seed %d  trace %v  workers %d (GOMAXPROCS %d, NumCPU %d)\n",
		name, cfg.seed, trace, h.Workers, h.GOMAXPROCS, h.NumCPU)
	for _, m := range sp.metrics(trace) {
		v, ok := rep.metrics[m.Name]
		if !ok {
			return fmt.Errorf("%s: metric %s not measured", name, m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s: metric %s is %v", name, m.Name, v)
		}
		out.Metrics[m.Name] = valued{v, m.Unit}
		n := rep.samples[m.Name]
		if strings.HasPrefix(m.Name, "latency_ms_") {
			n = rep.samples["latency"]
		}
		line := fmt.Sprintf("  %-30s %14.6g %-8s", m.Name, v, m.Unit)
		if n > 0 {
			line += fmt.Sprintf(" n=%d", n)
		}
		fmt.Fprintln(w, line)
	}
	for _, tail := range []string{"latency_ms_p90", "latency_ms_p99"} {
		if v, ok := rep.metrics[tail]; ok {
			fmt.Fprintf(w, "  %-30s %14.6g %-8s n=%d (reported, not gated)\n", tail, v, "ms", rep.samples["latency"])
		}
	}
	for _, note := range rep.notes {
		fmt.Fprintln(w, "  "+note)
	}
	if rep.resultHash != "" {
		fmt.Fprintf(w, "  result_hash %s (review only)\n", rep.resultHash)
	}
	fmt.Fprintf(w, "  checks: %d attempted, %d failed\n", rep.attempted, rep.failed)
	if rep.firstErr != nil {
		fmt.Fprintf(w, "  first failure: %v\n", rep.firstErr)
	}
	if recordDir != "" {
		rec := record{
			Workload: name, Seed: cfg.seed, Trace: trace, Seconds: cfg.seconds,
			StartedNS: started.UnixNano(), ResultHash: rep.resultHash, Host: h, Output: out,
		}
		if err := writeRecord(recordDir, rec); err != nil {
			return err
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(line))
	return nil
}

func writeRecord(dir string, rec record) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("record: %w", err)
	}
	b, err := json.MarshalIndent(rec, "", " ")
	if err != nil {
		return fmt.Errorf("record: %w", err)
	}
	mode := "run"
	if rec.Trace {
		mode = "trace"
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-%s-seed%d-%d.json", rec.Workload, mode, rec.Seed, rec.StartedNS))
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("record: %w", err)
	}
	return nil
}

// runAll runs every workload of the spec runs times, each run in its
// own child process so that memory, GC state and set-up are per
// workload, and prints a summary table.
func runAll(sp *spec, cfg runCfg, trace bool, runs int, recordDir string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	results := map[string][]output{}
	for r := 0; r < runs; r++ {
		for _, wl := range sp.Workloads {
			args := []string{
				"-workdir", cfg.workDir,
				"--workload", wl.Name, "--seed", strconv.FormatInt(cfg.seed+int64(r), 10),
				"--seconds", strconv.FormatFloat(cfg.seconds, 'f', -1, 64), "--trace", "0",
			}
			if trace {
				args[len(args)-1] = "1"
			}
			if recordDir != "" {
				args = append(args, "-record", recordDir)
			}
			var buf bytes.Buffer
			cmd := exec.Command(self, args...)
			cmd.Stdout = io.MultiWriter(os.Stdout, &buf)
			cmd.Stderr = os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("workload %s: %w", wl.Name, err)
			}
			var out output
			if err := json.Unmarshal([]byte(lastLine(buf.String())), &out); err != nil {
				return fmt.Errorf("workload %s: result line: %w", wl.Name, err)
			}
			results[wl.Name] = append(results[wl.Name], out)
		}
	}
	fmt.Printf("\nsummary over %d set(s); median of runs per workload\n%-28s", runs, "metric")
	for _, wl := range sp.Workloads {
		fmt.Printf(" %14s", wl.Name)
	}
	fmt.Println()
	for _, m := range sp.metrics(trace) {
		fmt.Printf("%-28s", m.Name+" ("+m.Unit+")")
		for _, wl := range sp.Workloads {
			var vs []float64
			for _, o := range results[wl.Name] {
				vs = append(vs, o.Metrics[m.Name].Value)
			}
			fmt.Printf(" %14.6g", median(vs))
		}
		fmt.Println()
	}
	for _, wl := range sp.Workloads {
		for _, o := range results[wl.Name] {
			if !o.Correct {
				return fmt.Errorf("workload %s: %d of %d ops failed", wl.Name, o.Failed, o.Attempted)
			}
		}
	}
	return nil
}

func lastLine(s string) string {
	lines := strings.Split(strings.TrimSpace(s), "\n")
	return lines[len(lines)-1]
}
