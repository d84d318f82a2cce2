// Command ocroute routes a macro-cell instance end to end and reports
// the metrics of the chosen flow:
//
//	benchgen -name xerox | ocroute -flow proposed
//	ocroute -in chip.json -flow baseline
//	ocroute -in chip.json -flow proposed -svg routed.svg -nets
//	ocroute -in chip.json -stats -trace run.ndjson -heatmap heat.svg
//
// Flows: baseline (all nets in two-layer channels), proposed (the
// paper's over-cell methodology), channel4 (optimistic four-layer
// channel model), channelfree (everything over the cells).
//
// Observability: -trace streams every routing event as NDJSON, -stats
// prints the aggregate collector summary (search expansions,
// escalations, rip-up outcomes, phase times), -heatmap writes the
// per-window congestion map of the level B grid (SVG when the file
// ends in .svg, ASCII otherwise), and -cpuprofile/-memprofile write
// standard pprof profiles. -perf-report writes the performance
// attribution report (per-phase wall time and allocation deltas) as
// JSON and prints the human table; profiles captured alongside it
// carry pprof labels (run, phase).
//
// Robustness: -deadline bounds the run's wall clock, -budget and
// -total-budget cap search expansions per net and per run, and
// -partial accepts runs where some nets degraded instead of failing
// the whole route. A run that trips a sticky bound (deadline or total
// budget) still prints its verified partial result and exits 2.
package main

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"overcell/internal/flow"
	"overcell/internal/gen"
	"overcell/internal/metrics"
	"overcell/internal/obs"
	"overcell/internal/obs/perf"
	"overcell/internal/render"
	"overcell/internal/robust"
	"overcell/internal/version"
)

func main() {
	os.Exit(run())
}

func run() int {
	in := flag.String("in", "", "instance JSON (default stdin)")
	flowName := flag.String("flow", "proposed", "flow: baseline, proposed, channel4, channelfree, all")
	svg := flag.String("svg", "", "write the routed layout as SVG to this file")
	dump := flag.String("dump", "", "write the full level B geometry as text to this file")
	nets := flag.Bool("nets", false, "print the per-net level B table (wire, vias, expanded, escalations, failures)")
	trace := flag.String("trace", "", "stream routing events as NDJSON to this file")
	stats := flag.Bool("stats", false, "print the aggregated routing statistics summary")
	heatmap := flag.String("heatmap", "", "write the level B congestion heatmap to this file (.svg for SVG, anything else for ASCII)")
	heatwin := flag.Int("heatwin", 8, "heatmap window size in tracks")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file")
	deadline := flag.Duration("deadline", 0, "wall-clock budget for the whole run (0 = none)")
	budget := flag.Int64("budget", 0, "search-expansion budget per net (0 = unlimited)")
	totalBudget := flag.Int64("total-budget", 0, "search-expansion budget for the whole run (0 = unlimited)")
	partial := flag.Bool("partial", false, "accept runs where some nets degraded under the budget instead of failing")
	perfReport := flag.String("perf-report", "", "write the perf-attribution report as JSON to this file and print the summary table (- for table only)")
	showVersion := flag.Bool("version", false, "print the build version and exit")
	flag.Parse()

	if *showVersion {
		fmt.Printf("ocroute %s (%s)\n", version.String(), version.Go())
		return 0
	}

	var r io.Reader = os.Stdin
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			die(err)
		}
		defer f.Close()
		r = f
	}
	inst, err := gen.ReadJSON(r)
	if err != nil {
		die(err)
	}

	var collector *obs.Collector
	var tracers []obs.Tracer
	if *stats {
		collector = obs.NewCollector()
		tracers = append(tracers, collector)
	}
	var traceBuf *bufio.Writer
	var traceWriter *obs.Writer
	if *trace != "" {
		f, err := os.Create(*trace)
		if err != nil {
			die(err)
		}
		defer f.Close()
		traceBuf = bufio.NewWriter(f)
		traceWriter = obs.NewWriter(traceBuf)
		tracers = append(tracers, traceWriter)
	}
	opts := flow.Options{
		Tracer: obs.Combine(tracers...),
		Limits: robust.Limits{
			NetExpansions:   *budget,
			TotalExpansions: *totalBudget,
			Timeout:         *deadline,
		},
		AllowPartial: *partial,
	}
	var pc *perf.Collector
	if *perfReport != "" {
		pc = perf.New(perf.Options{Run: inst.Name})
		opts.Perf = pc
		opts.RunID = inst.Name
	}
	// Label the run whenever a profile or a perf report is requested, so
	// captured samples attribute per phase.
	opts.ProfileLabels = *perfReport != "" || *cpuprofile != "" || *memprofile != ""

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			die(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			die(err)
		}
		defer pprof.StopCPUProfile()
	}

	flows := map[string]func(*gen.Instance, flow.Options) (*flow.Result, error){
		"baseline":    flow.TwoLayerBaseline,
		"proposed":    flow.Proposed,
		"channel4":    flow.FourLayerChannel,
		"channelfree": flow.ChannelFree,
	}
	var res *flow.Result
	degraded := false
	if *flowName == "all" {
		// Flows re-place the shared layout, so each runs on a fresh copy
		// decoded from the serialised instance.
		var buf bytes.Buffer
		if err := inst.WriteJSON(&buf); err != nil {
			die(err)
		}
		for _, name := range []string{"baseline", "channel4", "proposed", "channelfree"} {
			copyInst, err := gen.ReadJSON(bytes.NewReader(buf.Bytes()))
			if err != nil {
				die(err)
			}
			res, err = flows[name](copyInst, opts)
			if err != nil {
				die(fmt.Errorf("%s: %w", name, err))
			}
			fmt.Println(metrics.FlowLine(inst.Name+"/"+res.Flow, res))
		}
	} else {
		flowFn, ok := flows[*flowName]
		if !ok {
			die(fmt.Errorf("unknown flow %q", *flowName))
		}
		var ferr error
		res, ferr = flowFn(inst, opts)
		if ferr != nil {
			// Sticky budget trips and cancellations return the verified
			// partial result alongside the error; report it and exit 2
			// below instead of dying.
			if res == nil || res.LevelB == nil {
				die(ferr)
			}
			fmt.Fprintln(os.Stderr, "ocroute: partial result:", ferr)
			degraded = true
		}
		fmt.Println(metrics.FlowLine(inst.Name+"/"+res.Flow, res))
		if res.Degraded > 0 {
			fmt.Printf("degraded: %d nets hit the work budget\n", res.Degraded)
		}
		if res.LevelB != nil {
			fmt.Printf("level B: %d nets, %d corners, %d search nodes expanded\n",
				len(res.LevelB.Routes), res.LevelB.Corners, res.LevelB.Expanded)
			if *nets {
				fmt.Print(render.NetTable(res.LevelB))
			}
		}
	}

	if traceWriter != nil {
		if err := traceWriter.Err(); err != nil {
			die(err)
		}
		if err := traceBuf.Flush(); err != nil {
			die(err)
		}
		fmt.Printf("wrote %s (%d events)\n", *trace, traceWriter.Events())
	}
	if collector != nil {
		fmt.Print(collector.Summary())
	}
	if pc != nil {
		pc.Finish()
		rep := pc.Report()
		if *perfReport != "-" {
			f, err := os.Create(*perfReport)
			if err != nil {
				die(err)
			}
			defer f.Close()
			if err := rep.WriteJSON(f); err != nil {
				die(err)
			}
			fmt.Println("wrote", *perfReport)
		}
		fmt.Print(rep.Table())
	}
	if *heatmap != "" {
		if res == nil || res.BGrid == nil {
			die(fmt.Errorf("flow %q has no level B grid to map; use -flow proposed or channelfree", *flowName))
		}
		h := obs.CollectHeatmap(res.BGrid, *heatwin)
		f, err := os.Create(*heatmap)
		if err != nil {
			die(err)
		}
		defer f.Close()
		if strings.HasSuffix(*heatmap, ".svg") {
			err = render.HeatmapSVG(f, h)
		} else {
			_, err = io.WriteString(f, render.HeatmapASCII(h))
		}
		if err != nil {
			die(err)
		}
		c, r, occ := h.Hottest()
		fmt.Printf("wrote %s (hottest tile (%d,%d) occ=%.2f)\n", *heatmap, c, r, occ)
	}
	if *dump != "" && res != nil && res.LevelB != nil {
		f, err := os.Create(*dump)
		if err != nil {
			die(err)
		}
		defer f.Close()
		if err := render.TextDump(f, res.LevelB); err != nil {
			die(err)
		}
		fmt.Println("wrote", *dump)
	}
	if *svg != "" && res != nil {
		f, err := os.Create(*svg)
		if err != nil {
			die(err)
		}
		defer f.Close()
		if err := render.SVG(f, inst.Layout, res.BGrid, res.LevelB); err != nil {
			die(err)
		}
		fmt.Println("wrote", *svg)
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			die(err)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			die(err)
		}
	}
	if degraded {
		return 2
	}
	return 0
}

func die(err error) {
	fmt.Fprintln(os.Stderr, "ocroute:", err)
	os.Exit(1)
}
