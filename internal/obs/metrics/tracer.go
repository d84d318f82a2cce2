package metrics

import (
	"fmt"

	"overcell/internal/obs"
)

// Tracer adapts a Registry to the obs.Tracer interface: every routing
// event updates the corresponding live metrics, so the existing emit
// sites in core/tig/maze/flow feed a scrapeable /metrics endpoint
// with zero changes to the routing hot path.
//
// Unlike most tracers, Tracer is goroutine-safe without obs.Synced —
// counters are atomic and histograms lock internally — so one Tracer
// can be shared by every concurrently routing run in a server.
//
// All series are pre-registered at construction, so a scrape before
// the first run already shows the full zero-valued metric surface.
type Tracer struct {
	reg *Registry

	events map[obs.EventType]*Counter

	netsRouted, netsFailed       *Counter
	wire, vias, corners          *Counter
	expanded, pruned             *Counter
	selectPruned, searchFailed   *Counter
	mbfsLevels, mbfsExpanded     *Histogram
	mbfsPaths                    *Histogram
	relaxed                      *Counter
	ripupAttempts, ripupWins     *Counter
	ripupPasses                  *Counter
	budgetTransient, budgetStick *Counter
}

// allEventTypes is the exhaustive taxonomy, mirrored from the obs
// constants so the events_total family is fully pre-registered.
var allEventTypes = []obs.EventType{
	obs.EvPhaseStart, obs.EvPhaseEnd, obs.EvNetStart, obs.EvNetDone,
	obs.EvMBFS, obs.EvSelect, obs.EvEscalate, obs.EvRipup,
	obs.EvRipupPass, obs.EvMaze, obs.EvBudget,
}

// NewTracer registers the routing metric families on reg and returns
// the adapter.
func NewTracer(reg *Registry) *Tracer {
	t := &Tracer{reg: reg, events: make(map[obs.EventType]*Counter)}
	for _, ev := range allEventTypes {
		t.events[ev] = reg.Counter("ocroute_events_total",
			"Routing events by type.", L("ev", string(ev)))
	}
	t.netsRouted = reg.Counter("ocroute_nets_routed_total", "Net routing attempts that completed.")
	t.netsFailed = reg.Counter("ocroute_nets_failed_total", "Net routing attempts that failed.")
	t.wire = reg.Counter("ocroute_wire_units_total", "Wire length committed, in layout units.")
	t.vias = reg.Counter("ocroute_vias_total", "Routing vias committed (corner and T-junction).")
	t.corners = reg.Counter("ocroute_corners_total", "Direction changes committed.")
	t.expanded = reg.Counter("ocroute_search_expanded_total", "Search-tree nodes created (MBFS and maze).")
	t.pruned = reg.Counter("ocroute_search_pruned_total", "Examine-once visit-rule rejections.")
	t.selectPruned = reg.Counter("ocroute_select_pruned_total", "Path candidates abandoned by the selection bound.")
	t.searchFailed = reg.Counter("ocroute_searches_exhausted_total", "MBFS searches that found no path.")
	t.mbfsLevels = reg.Histogram("ocroute_mbfs_levels", "Corner depth reached per MBFS search.")
	t.mbfsExpanded = reg.Histogram("ocroute_mbfs_expanded", "Nodes created per MBFS search.")
	t.mbfsPaths = reg.Histogram("ocroute_mbfs_paths", "Minimum-corner paths found per MBFS search.")
	t.relaxed = reg.Counter("ocroute_relaxed_retries_total", "Examine-once-relaxed final retries.")
	t.ripupAttempts = reg.Counter("ocroute_ripup_attempts_total", "Rip-up-and-reroute attempts.")
	t.ripupWins = reg.Counter("ocroute_ripup_wins_total", "Rip-up attempts that recovered the net.")
	t.ripupPasses = reg.Counter("ocroute_ripup_passes_total", "Recovery passes over failed nets.")
	t.budgetTransient = reg.Counter("ocroute_budget_trips_total",
		"Work-budget trips.", L("sticky", "false"))
	t.budgetStick = reg.Counter("ocroute_budget_trips_total",
		"Work-budget trips.", L("sticky", "true"))
	// Pre-register the low-cardinality labelled families the emit path
	// resolves on demand, so they appear (empty) before the first run.
	for _, phase := range []string{"level-a", "level-b", "verify"} {
		reg.Counter("ocroute_phase_ns_total",
			"Wall time spent per flow phase, nanoseconds.", L("phase", phase))
	}
	return t
}

// Enabled implements obs.Tracer.
func (t *Tracer) Enabled() bool { return true }

// Emit implements obs.Tracer.
func (t *Tracer) Emit(e obs.Event) {
	if c, ok := t.events[e.Type]; ok {
		c.Inc()
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
		// The ladder has a handful of steps, so the step label stays
		// bounded; the registry get-or-create makes repeats cheap.
		t.reg.Counter("ocroute_escalations_total",
			"Completion-ladder steps entered.", L("step", fmt.Sprint(e.Step))).Inc()
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
		t.reg.Counter("ocroute_phase_ns_total",
			"Wall time spent per flow phase, nanoseconds.", L("phase", e.Phase)).Add(e.DurNS)
	}
}
