// Package perf is the router's performance-attribution layer: it
// splits a run's wall time and allocations across the flow phases.
//
// A Collector is attached to a run as an obs.Tracer: it samples the Go
// runtime's allocation counters at every flow phase boundary. Report
// renders the result as deterministic JSON and a human table.
//
// The runtime counters are process-wide, so a report is exact only
// while its run has the process to itself: ocroute -perf-report and
// the benchmark's traced pass.
//
// Determinism contract: the inputs that vary between runs — the clock
// and the runtime sampler — are injectable. Under a fixed clock and a
// fixed sampler the report bytes are identical run to run. See
// DESIGN.md section 15.
package perf

import (
	"math"
	rm "runtime/metrics"
)

// Sample is one cheap point-in-time reading of the Go runtime's
// allocation and scheduling counters, taken via runtime/metrics (no
// stop-the-world). The counter fields are cumulative since process
// start; deltas between two Samples attribute allocation and GC
// activity to the code that ran in between.
type Sample struct {
	Allocs     uint64 // heap objects allocated
	Bytes      uint64 // heap bytes allocated
	GCCycles   uint64 // completed GC cycles
	GCPauseNS  int64  // approximate total stop-the-world pause
	SchedLatNS int64  // approximate total goroutine scheduling latency
	Goroutines int64  // live goroutines (instantaneous, not cumulative)
}

// Sub returns the counter deltas s minus base. The instantaneous
// Goroutines field carries s's reading through unchanged.
func (s Sample) Sub(base Sample) Sample {
	return Sample{
		Allocs:     s.Allocs - base.Allocs,
		Bytes:      s.Bytes - base.Bytes,
		GCCycles:   s.GCCycles - base.GCCycles,
		GCPauseNS:  s.GCPauseNS - base.GCPauseNS,
		SchedLatNS: s.SchedLatNS - base.SchedLatNS,
		Goroutines: s.Goroutines,
	}
}

// Add accumulates delta d into s, field-wise; Goroutines keeps the
// maximum of the two readings.
func (s Sample) Add(d Sample) Sample {
	out := Sample{
		Allocs:     s.Allocs + d.Allocs,
		Bytes:      s.Bytes + d.Bytes,
		GCCycles:   s.GCCycles + d.GCCycles,
		GCPauseNS:  s.GCPauseNS + d.GCPauseNS,
		SchedLatNS: s.SchedLatNS + d.SchedLatNS,
		Goroutines: s.Goroutines,
	}
	if d.Goroutines > out.Goroutines {
		out.Goroutines = d.Goroutines
	}
	return out
}

// sampleNames are the runtime/metrics series a sampler reads. All of
// them are cheap (no world stop); the two histogram series are reduced
// to approximate totals.
var sampleNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/gc/pauses:seconds",
	"/sched/latencies:seconds",
	"/sched/goroutines:goroutines",
}

// RuntimeSampler returns a sampler over the live Go runtime. The
// returned function reuses one metrics buffer and is not safe for
// concurrent use; the Collector serialises its calls under its own
// lock.
func RuntimeSampler() func() Sample {
	buf := make([]rm.Sample, len(sampleNames))
	for i, n := range sampleNames {
		buf[i].Name = n
	}
	return func() Sample {
		rm.Read(buf)
		var s Sample
		for i := range buf {
			v := &buf[i].Value
			switch buf[i].Name {
			case "/gc/heap/allocs:objects":
				s.Allocs = uintValue(v)
			case "/gc/heap/allocs:bytes":
				s.Bytes = uintValue(v)
			case "/gc/cycles/total:gc-cycles":
				s.GCCycles = uintValue(v)
			case "/gc/pauses:seconds":
				s.GCPauseNS = histTotalNS(v)
			case "/sched/latencies:seconds":
				s.SchedLatNS = histTotalNS(v)
			case "/sched/goroutines:goroutines":
				s.Goroutines = int64(uintValue(v))
			}
		}
		return s
	}
}

func uintValue(v *rm.Value) uint64 {
	if v.Kind() == rm.KindUint64 {
		return v.Uint64()
	}
	return 0
}

// histTotalNS approximates a float64-histogram's total as the sum of
// count times bucket midpoint, in nanoseconds. Open-ended buckets fall
// back to their finite edge, so the estimate is conservative at the
// tails; it is meant for attribution ratios, not absolute truth.
func histTotalNS(v *rm.Value) int64 {
	if v.Kind() != rm.KindFloat64Histogram {
		return 0
	}
	h := v.Float64Histogram()
	if h == nil {
		return 0
	}
	var total float64
	for i, n := range h.Counts {
		if n == 0 {
			continue
		}
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		var mid float64
		switch {
		case math.IsInf(lo, -1):
			mid = hi
		case math.IsInf(hi, 1):
			mid = lo
		default:
			mid = (lo + hi) / 2
		}
		total += float64(n) * mid
	}
	return int64(total * 1e9)
}
