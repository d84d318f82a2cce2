// Command tables regenerates the evaluation tables of Katsadas & Chen
// (DAC 1990) on the synthetic benchmark instances:
//
//	tables -table 1            instance statistics (Table 1)
//	tables -table 2            over-cell vs two-layer channel flow (Table 2)
//	tables -table 3            over-cell vs optimistic 4-layer channel (Table 3)
//	tables -table channelfree  the channel-free variant of section 5
//	tables -table all          everything
package main

import (
	"flag"
	"fmt"
	"os"

	"overcell/internal/flow"
	"overcell/internal/gen"
	"overcell/internal/metrics"
	obsmetrics "overcell/internal/obs/metrics"
)

var makers = []struct {
	name string
	mk   func() (*gen.Instance, error)
}{
	{"ami33", gen.Ami33Like},
	{"Xerox", gen.XeroxLike},
	{"ex3", gen.Ex3Like},
}

// runOpts is threaded through every flow invocation so -stats can
// aggregate routing events across all table runs.
var runOpts flow.Options

func main() {
	table := flag.String("table", "all", "which table to print: 1, 2, 3, channelfree, delay, all")
	stats := flag.Bool("stats", false, "print aggregated routing statistics after the tables")
	flag.Parse()
	var statsTracer *obsmetrics.Tracer
	if *stats {
		statsTracer = obsmetrics.NewTracer(nil)
		runOpts.Tracer = statsTracer
	}
	switch *table {
	case "1":
		table1()
	case "2":
		table2()
	case "3":
		table3()
	case "channelfree":
		channelFree()
	case "delay":
		delayTable()
	case "all":
		table1()
		fmt.Println()
		table2()
		fmt.Println()
		table3()
		fmt.Println()
		channelFree()
		fmt.Println()
		delayTable()
	default:
		fmt.Fprintf(os.Stderr, "unknown table %q\n", *table)
		os.Exit(2)
	}
	if statsTracer != nil {
		fmt.Println()
		fmt.Print(statsTracer.Summary())
	}
}

func die(err error) {
	fmt.Fprintln(os.Stderr, "tables:", err)
	os.Exit(1)
}

func table1() {
	fmt.Println("Table 1: information about the three layout examples")
	fmt.Printf("%-8s %6s %6s %6s %14s %14s\n",
		"Example", "Cells", "Nets", "Pins", "Level A nets", "avg pins/net")
	for _, m := range makers {
		inst, err := m.mk()
		if err != nil {
			die(err)
		}
		cells := len(inst.Layout.Cells())
		nets, pins := 0, 0
		aNets, aPins := 0, 0
		for _, s := range inst.Nets {
			nets++
			pins += len(s.Pins)
			if s.LevelA() {
				aNets++
				aPins += len(s.Pins)
			}
		}
		fmt.Printf("%-8s %6d %6d %6d %14d %14.2f\n",
			m.name, cells, nets, pins, aNets, float64(aPins)/float64(aNets))
	}
}

func runPair(mk func() (*gen.Instance, error),
	base, after func(*gen.Instance, flow.Options) (*flow.Result, error)) (metrics.Comparison, error) {
	ib, err := mk()
	if err != nil {
		return metrics.Comparison{}, err
	}
	rb, err := base(ib, runOpts)
	if err != nil {
		return metrics.Comparison{}, err
	}
	ia, err := mk()
	if err != nil {
		return metrics.Comparison{}, err
	}
	ra, err := after(ia, runOpts)
	if err != nil {
		return metrics.Comparison{}, err
	}
	return metrics.Comparison{Base: rb, New: ra}, nil
}

func table2() {
	fmt.Println("Table 2: percent reductions of the over-cell router over a two-layer channel router")
	var rows []metrics.Comparison
	for _, m := range makers {
		c, err := runPair(m.mk, flow.TwoLayerBaseline, flow.Proposed)
		if err != nil {
			die(err)
		}
		c.Instance = m.name
		rows = append(rows, c)
	}
	fmt.Print(metrics.Table2(rows))
}

func table3() {
	fmt.Println("Table 3: layout area, optimistic 4-layer channel router vs 4-layer over-cell router")
	var rows []metrics.Comparison
	for _, m := range makers {
		c, err := runPair(m.mk, flow.FourLayerChannel, flow.Proposed)
		if err != nil {
			die(err)
		}
		c.Instance = m.name
		rows = append(rows, c)
	}
	fmt.Print(metrics.Table3(rows))
}

func delayTable() {
	fmt.Println("Propagation delay (section 2 motivation): Elmore estimates, two-layer channel vs over-cell flow")
	fmt.Printf("%-8s %16s %16s %12s %12s\n", "Example", "mean (base)", "mean (prop)", "mean red.", "max red.")
	for _, m := range makers {
		c, err := runPair(m.mk, flow.TwoLayerBaseline, flow.Proposed)
		if err != nil {
			die(err)
		}
		fmt.Printf("%-8s %16.0f %16.0f %11.1f%% %11.1f%%\n",
			m.name, c.Base.Delay.Mean, c.New.Delay.Mean,
			metrics.Reduction(int64(c.Base.Delay.Mean), int64(c.New.Delay.Mean)),
			metrics.Reduction(int64(c.Base.Delay.Max), int64(c.New.Delay.Max)))
	}
}

func channelFree() {
	fmt.Println("Channel-free mode (section 5): all nets at level B, channels eliminated")
	fmt.Printf("%-8s %14s %14s %10s\n", "Example", "Over-cell", "Channel-free", "Reduction")
	for _, m := range makers {
		c, err := runPair(m.mk, flow.Proposed, flow.ChannelFree)
		if err != nil {
			die(err)
		}
		fmt.Printf("%-8s %14d %14d %9.1f%%\n",
			m.name, c.Base.Area, c.New.Area, c.AreaReduction())
	}
}
