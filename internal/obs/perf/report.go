package perf

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// ReportSchema versions the perf-report JSON document.
const ReportSchema = 1

// Report is one run's performance attribution, rendered from a
// Collector. Field order and the phase order (first seen) are fixed, so
// identical inputs marshal to identical bytes.
type Report struct {
	Schema int    `json:"schema"`
	Run    string `json:"run,omitempty"`
	// Workers is never set.
	//
	// Deprecated: Workers exists only so that the benchmark under bench/,
	// which must also build against older checkouts, keeps compiling.
	Workers int `json:"workers,omitempty"`
	// Complete is false for a mid-run snapshot (Finish not yet called).
	Complete bool  `json:"complete"`
	WallNS   int64 `json:"wall_ns"`
	// Runtime is the whole-run runtime/metrics delta; Mem the
	// whole-run MemStats delta (HeapSysBytes is the end-of-run level,
	// not a delta).
	Runtime        RuntimeDelta  `json:"runtime"`
	Mem            MemDelta      `json:"mem"`
	GoroutinesPeak int64         `json:"goroutines_peak"`
	Phases         []PhaseReport `json:"phases,omitempty"`
	// Parallel is never set.
	//
	// Deprecated: Parallel exists only so that the benchmark under
	// bench/, which must also build against older checkouts, keeps
	// compiling.
	Parallel *ParallelReport `json:"parallel,omitempty"`
}

// RuntimeDelta is a Sample delta in report form.
type RuntimeDelta struct {
	Allocs     uint64 `json:"allocs"`
	Bytes      uint64 `json:"bytes"`
	GCCycles   uint64 `json:"gc_cycles"`
	GCPauseNS  int64  `json:"gc_pause_ns"`
	SchedLatNS int64  `json:"sched_lat_ns"`
}

// MemDelta is the run-level MemStats delta.
type MemDelta struct {
	TotalAllocBytes uint64 `json:"total_alloc_bytes"`
	Mallocs         uint64 `json:"mallocs"`
	NumGC           uint32 `json:"num_gc"`
	PauseTotalNS    uint64 `json:"pause_total_ns"`
	HeapSysBytes    uint64 `json:"heap_sys_bytes"`
}

// PhaseReport is one flow phase's attribution: wall time from the
// phase events themselves (flow clock),
// allocation deltas from the collector's sampler.
type PhaseReport struct {
	Name      string `json:"name"`
	Count     int    `json:"count"`
	WallNS    int64  `json:"wall_ns"`
	Allocs    uint64 `json:"allocs"`
	Bytes     uint64 `json:"bytes"`
	GCCycles  uint64 `json:"gc_cycles"`
	GCPauseNS int64  `json:"gc_pause_ns"`
}

// ParallelReport is the speculation summary older checkouts reported.
//
// Deprecated: ParallelReport exists only so that the benchmark under
// bench/, which must also build against older checkouts, keeps
// compiling.
type ParallelReport struct {
	Speculated int64 `json:"speculated"`
	Committed  int64 `json:"committed"`
}

// Report snapshots the collector into a Report. Safe to call at any
// time, including mid-run from another goroutine; Complete reports
// whether Finish had been called.
func (c *Collector) Report() *Report {
	c.mu.Lock()
	defer c.mu.Unlock()
	endT, endS, endM := c.endT, c.endS, c.endM
	if !c.finished {
		endT = c.clock()
		endS = c.sampler()
		endM = c.mem()
	}
	r := &Report{
		Schema:         ReportSchema,
		Run:            c.runID,
		Complete:       c.finished,
		GoroutinesPeak: c.goroPeak,
	}
	if c.started {
		r.WallNS = endT.Sub(c.startT).Nanoseconds()
		d := endS.Sub(c.startS)
		r.Runtime = RuntimeDelta{
			Allocs: d.Allocs, Bytes: d.Bytes, GCCycles: d.GCCycles,
			GCPauseNS: d.GCPauseNS, SchedLatNS: d.SchedLatNS,
		}
		r.Mem = MemDelta{
			TotalAllocBytes: endM.TotalAllocBytes - c.startM.TotalAllocBytes,
			Mallocs:         endM.Mallocs - c.startM.Mallocs,
			NumGC:           endM.NumGC - c.startM.NumGC,
			PauseTotalNS:    endM.PauseTotalNS - c.startM.PauseTotalNS,
			HeapSysBytes:    endM.HeapSysBytes,
		}
		if g := endS.Goroutines; g > r.GoroutinesPeak {
			r.GoroutinesPeak = g
		}
	}
	for _, name := range c.phaseOrder {
		p := c.phases[name]
		r.Phases = append(r.Phases, PhaseReport{
			Name: p.name, Count: p.count, WallNS: p.wallNS,
			Allocs: p.d.Allocs, Bytes: p.d.Bytes,
			GCCycles: p.d.GCCycles, GCPauseNS: p.d.GCPauseNS,
		})
	}
	return r
}

// WriteJSON writes the report as indented JSON with a trailing
// newline. The encoding is deterministic: struct field order plus the
// fixed slice orderings documented on Report.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Table renders the report as a human-readable text table (cold path;
// allocation-free rendering is a non-goal here).
func (r *Report) Table() string {
	var b strings.Builder
	state := "complete"
	if !r.Complete {
		state = "in progress"
	}
	fmt.Fprintf(&b, "perf report: run=%s (%s)\n", orDash(r.Run), state)
	fmt.Fprintf(&b, "  wall %s  allocs %d (%s)  gc %d cycles / %s pause  sched-lat %s  goroutines<=%d\n",
		ns(r.WallNS), r.Runtime.Allocs, bytesH(r.Runtime.Bytes),
		r.Runtime.GCCycles, ns(r.Runtime.GCPauseNS), ns(r.Runtime.SchedLatNS), r.GoroutinesPeak)
	if len(r.Phases) > 0 {
		fmt.Fprintf(&b, "  %-12s %10s %12s %14s %6s\n", "phase", "wall", "allocs", "bytes", "gc")
		for _, p := range r.Phases {
			fmt.Fprintf(&b, "  %-12s %10s %12d %14s %6d\n",
				p.Name, ns(p.WallNS), p.Allocs, bytesH(p.Bytes), p.GCCycles)
		}
	}
	return b.String()
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

func ns(v int64) string {
	switch {
	case v >= 1e9:
		return fmt.Sprintf("%.2fs", float64(v)/1e9)
	case v >= 1e6:
		return fmt.Sprintf("%.2fms", float64(v)/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.1fµs", float64(v)/1e3)
	}
	return fmt.Sprintf("%dns", v)
}

func bytesH(v uint64) string {
	switch {
	case v >= 1<<30:
		return fmt.Sprintf("%.2fGiB", float64(v)/(1<<30))
	case v >= 1<<20:
		return fmt.Sprintf("%.2fMiB", float64(v)/(1<<20))
	case v >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(v)/(1<<10))
	}
	return fmt.Sprintf("%dB", v)
}
