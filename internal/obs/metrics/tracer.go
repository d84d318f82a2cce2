package metrics

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"overcell/internal/obs"
)

// Tracer is the routing run's event aggregate: it tallies events by
// type, nets, wire, search effort, escalations, rip-ups, budget trips
// and phase wall times, and renders them as the -stats Summary.
// NewTracer(nil) keeps the tallies to itself; NewTracer(reg) also
// exposes them on reg as the ocroute_* families, so the emit sites in
// core/tig/maze/flow feed a scrapeable /metrics endpoint with zero
// changes to the routing hot path.
//
// Tracer is goroutine-safe — counters are atomic, histograms lock
// internally and the labelled-series caches take a mutex — so one
// Tracer can be shared by every concurrently routing run in a server,
// and Summary may be read while a run is still emitting.
type Tracer struct {
	reg *Registry

	events [len(allEventTypes)]Counter // indexed like allEventTypes

	netsRouted, netsFailed       Counter
	wire, vias, corners          Counter
	expanded, pruned             Counter
	selectPruned, searchFailed   Counter
	mbfsLevels, mbfsExpanded     Histogram
	mbfsPaths                    Histogram
	relaxed                      Counter
	ripupAttempts, ripupWins     Counter
	ripupPasses                  Counter
	budgetTransient, budgetStick Counter

	// The labelled series are resolved on the first event carrying a
	// new ladder step or phase name and cached, so a repeat costs a
	// locked map lookup and no allocation.
	mu     sync.Mutex
	steps  map[int]*Counter    // ocroute_escalations_total by step
	phases map[string]*Counter // ocroute_phase_ns_total by phase
}

// allEventTypes is the exhaustive taxonomy, mirrored from the obs
// constants so the events_total family is fully pre-registered. It is
// in name order, the order Summary lists the types in.
var allEventTypes = [...]obs.EventType{
	obs.EvBudget, obs.EvEscalate, obs.EvMaze, obs.EvMBFS,
	obs.EvNetDone, obs.EvNetStart, obs.EvPhaseEnd, obs.EvPhaseStart,
	obs.EvRipup, obs.EvRipupPass, obs.EvSelect,
}

// eventIndex maps each event type to its slot in Tracer.events.
var eventIndex = func() map[obs.EventType]int {
	m := make(map[obs.EventType]int, len(allEventTypes))
	for i, ev := range allEventTypes {
		m[ev] = i
	}
	return m
}()

const (
	phaseNSName = "ocroute_phase_ns_total"
	phaseNSHelp = "Wall time spent per flow phase, nanoseconds."
)

// NewTracer returns an empty aggregate. With a non-nil reg it also
// registers the routing metric families there, pre-registered so a
// scrape before the first run already shows the full zero-valued
// surface.
func NewTracer(reg *Registry) *Tracer {
	t := &Tracer{reg: reg, steps: make(map[int]*Counter), phases: make(map[string]*Counter)}
	if reg == nil {
		return t
	}
	counter := func(c *Counter, name, help string, labels ...Label) {
		expose(reg, name, help, kindCounter, c, labels...)
	}
	for i, ev := range allEventTypes {
		counter(&t.events[i], "ocroute_events_total", "Routing events by type.", L("ev", string(ev)))
	}
	counter(&t.netsRouted, "ocroute_nets_routed_total", "Net routing attempts that completed.")
	counter(&t.netsFailed, "ocroute_nets_failed_total", "Net routing attempts that failed.")
	counter(&t.wire, "ocroute_wire_units_total", "Wire length committed, in layout units.")
	counter(&t.vias, "ocroute_vias_total", "Routing vias committed (corner and T-junction).")
	counter(&t.corners, "ocroute_corners_total", "Direction changes committed.")
	counter(&t.expanded, "ocroute_search_expanded_total", "Search-tree nodes created (MBFS and maze).")
	counter(&t.pruned, "ocroute_search_pruned_total", "Examine-once visit-rule rejections.")
	counter(&t.selectPruned, "ocroute_select_pruned_total", "Path candidates abandoned by the selection bound.")
	counter(&t.searchFailed, "ocroute_searches_exhausted_total", "MBFS searches that found no path.")
	expose(reg, "ocroute_mbfs_levels", "Corner depth reached per MBFS search.", kindHistogram, &t.mbfsLevels)
	expose(reg, "ocroute_mbfs_expanded", "Nodes created per MBFS search.", kindHistogram, &t.mbfsExpanded)
	expose(reg, "ocroute_mbfs_paths", "Minimum-corner paths found per MBFS search.", kindHistogram, &t.mbfsPaths)
	counter(&t.relaxed, "ocroute_relaxed_retries_total", "Examine-once-relaxed final retries.")
	counter(&t.ripupAttempts, "ocroute_ripup_attempts_total", "Rip-up-and-reroute attempts.")
	counter(&t.ripupWins, "ocroute_ripup_wins_total", "Rip-up attempts that recovered the net.")
	counter(&t.ripupPasses, "ocroute_ripup_passes_total", "Recovery passes over failed nets.")
	counter(&t.budgetTransient, "ocroute_budget_trips_total", "Work-budget trips.", L("sticky", "false"))
	counter(&t.budgetStick, "ocroute_budget_trips_total", "Work-budget trips.", L("sticky", "true"))
	// Pre-register the phases every flow runs, so they appear (empty)
	// before the first run; Emit resolves them through the registry.
	for _, phase := range []string{"level-a", "level-b", "verify"} {
		reg.Counter(phaseNSName, phaseNSHelp, L("phase", phase))
	}
	return t
}

// Enabled implements obs.Tracer.
func (t *Tracer) Enabled() bool { return true }

// Emit implements obs.Tracer. Event types outside the obs taxonomy are
// ignored.
func (t *Tracer) Emit(e obs.Event) {
	if i, ok := eventIndex[e.Type]; ok {
		t.events[i].Inc()
	}
	switch e.Type {
	case obs.EvMBFS:
		t.expanded.Add(int64(e.Expanded))
		t.pruned.Add(int64(e.Pruned))
		t.mbfsLevels.Observe(int64(e.Levels))
		t.mbfsExpanded.Observe(int64(e.Expanded))
		t.mbfsPaths.Observe(int64(e.Paths))
		if e.Failed {
			t.searchFailed.Inc()
		}
	case obs.EvMaze:
		t.expanded.Add(int64(e.Expanded))
	case obs.EvSelect:
		t.selectPruned.Add(int64(e.Pruned))
	case obs.EvNetDone:
		if e.Failed {
			t.netsFailed.Inc()
		} else {
			t.netsRouted.Inc()
		}
		t.wire.Add(int64(e.Wire))
		t.vias.Add(int64(e.Vias))
		t.corners.Add(int64(e.Corners))
	case obs.EvEscalate:
		t.escalations(e.Step).Inc()
		if e.Relaxed {
			t.relaxed.Inc()
		}
	case obs.EvRipup:
		t.ripupAttempts.Inc()
		if !e.Failed {
			t.ripupWins.Inc()
		}
	case obs.EvRipupPass:
		t.ripupPasses.Inc()
	case obs.EvBudget:
		if e.Failed {
			t.budgetStick.Inc()
		} else {
			t.budgetTransient.Inc()
		}
	case obs.EvPhaseEnd:
		t.phaseNS(e.Phase).Add(e.DurNS)
	}
}

// escalations returns the cached series counting entries into a ladder
// step. The ladder has a handful of steps, so the label stays bounded.
func (t *Tracer) escalations(step int) *Counter {
	t.mu.Lock()
	defer t.mu.Unlock()
	c := t.steps[step]
	if c == nil {
		c = t.newSeries("ocroute_escalations_total", "Completion-ladder steps entered.",
			L("step", strconv.Itoa(step)))
		t.steps[step] = c
	}
	return c
}

// phaseNS returns the cached series summing a phase's wall time.
func (t *Tracer) phaseNS(phase string) *Counter {
	t.mu.Lock()
	defer t.mu.Unlock()
	c := t.phases[phase]
	if c == nil {
		c = t.newSeries(phaseNSName, phaseNSHelp, L("phase", phase))
		t.phases[phase] = c
	}
	return c
}

// newSeries returns the counter of a labelled series seen for the first
// time: the registry's when t has one, else a private counter.
func (t *Tracer) newSeries(name, help string, labels ...Label) *Counter {
	if t.reg == nil {
		return new(Counter)
	}
	return t.reg.Counter(name, help, labels...)
}

// Events returns the total number of events tallied.
func (t *Tracer) Events() int64 {
	var n int64
	for i := range t.events {
		n += t.events[i].Value()
	}
	return n
}

// Summary formats the tallies as a stable multi-line report. Event
// types, ladder steps and phases are listed in sorted order, so two
// identical runs produce identical summaries. Each figure is read
// atomically, but a summary taken while events still arrive is not a
// single snapshot.
func (t *Tracer) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "events: %d total\n", t.Events())
	for i, ev := range allEventTypes {
		if n := t.events[i].Value(); n > 0 {
			fmt.Fprintf(&b, "  %-12s %d\n", ev, n)
		}
	}
	fmt.Fprintf(&b, "nets: %d routed, %d failed attempts; wire=%d vias=%d corners=%d\n",
		t.netsRouted.Value(), t.netsFailed.Value(), t.wire.Value(), t.vias.Value(), t.corners.Value())
	fmt.Fprintf(&b, "search: %d nodes expanded, %d visit-rule prunes, %d selection prunes, %d searches exhausted\n",
		t.expanded.Value(), t.pruned.Value(), t.selectPruned.Value(), t.searchFailed.Value())
	levels, expanded, paths := t.mbfsLevels.snapshot(), t.mbfsExpanded.snapshot(), t.mbfsPaths.snapshot()
	fmt.Fprintf(&b, "  mbfs levels:   %s\n", levels.String())
	fmt.Fprintf(&b, "  mbfs expanded: %s\n", expanded.String())
	fmt.Fprintf(&b, "  mbfs paths:    %s\n", paths.String())

	t.mu.Lock()
	defer t.mu.Unlock()
	steps := make([]int, 0, len(t.steps))
	for s := range t.steps {
		steps = append(steps, s)
	}
	sort.Ints(steps)
	b.WriteString("escalations:")
	if len(steps) == 0 {
		b.WriteString(" none")
	}
	for _, s := range steps {
		fmt.Fprintf(&b, " step%d:%d", s, t.steps[s].Value())
	}
	fmt.Fprintf(&b, " (relaxed retries: %d)\n", t.relaxed.Value())
	fmt.Fprintf(&b, "rip-up: %d passes, %d attempts, %d recovered\n",
		t.ripupPasses.Value(), t.ripupAttempts.Value(), t.ripupWins.Value())
	sticky := t.budgetStick.Value()
	fmt.Fprintf(&b, "budget: %d trips (%d sticky)\n", t.budgetTransient.Value()+sticky, sticky)
	phases := make([]string, 0, len(t.phases))
	for p := range t.phases {
		phases = append(phases, p)
	}
	sort.Strings(phases)
	for _, p := range phases {
		fmt.Fprintf(&b, "phase %-8s %.3fms\n", p, float64(t.phases[p].Value())/1e6)
	}
	return b.String()
}
