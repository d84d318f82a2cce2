// Package obs is the router's structured observability layer: typed
// events emitted from the routing stack (internal/core, internal/tig,
// internal/maze, internal/flow), fanned out to pluggable Tracer
// implementations. The package ships two tracers:
//
//   - Nop, the default: Enabled() is false and every emit is a no-op,
//     so the hot search path pays one predicated branch and zero
//     allocations when tracing is off.
//   - Writer, an NDJSON streamer for offline analysis: one JSON object
//     per event, in emission order.
//
// The in-process aggregate of a run's events (per-type counts,
// power-of-two histograms of search effort, escalation and rip-up
// tallies, phase wall times) is metrics.Tracer.
//
// Events are flat value structs — no pointers, no interfaces — so an
// Emit call never forces a heap allocation on its own, and the NDJSON
// encoding of a stream is deterministic whenever the routing run is
// (wall-clock durations in phase_end events are the one documented
// exception).
package obs

// EventType names one kind of routing event. The values are the
// literal strings written to the NDJSON "ev" field.
type EventType string

// The event taxonomy. Field usage per type is documented on Event.
const (
	// EvPhaseStart/EvPhaseEnd bracket one flow phase (level-a, level-b,
	// verify). EvPhaseEnd carries the wall time in DurNS.
	EvPhaseStart EventType = "phase_start"
	EvPhaseEnd   EventType = "phase_end"
	// EvNetStart opens one routing attempt of a net: Rank is the
	// 1-based position in the serial routing order (rip-up retries
	// re-emit the net's original rank), Terminals the snapped terminal
	// count.
	EvNetStart EventType = "net_start"
	// EvNetDone closes the attempt: wire length, via and corner counts,
	// nodes expanded and window escalations consumed by the attempt,
	// Failed set when the net could not be completed.
	EvNetDone EventType = "net_done"
	// EvMBFS reports one modified-BFS search over the Track
	// Intersection Graph: Levels is the corner depth reached, Expanded
	// the path-selection-tree size (nodes created), Pruned the
	// candidate tracks the examine-once rule refused (at usable and at
	// blocked intersections alike, since the rule runs before the
	// usability probe), Paths the minimum-corner paths found.
	EvMBFS EventType = "mbfs"
	// EvSelect reports the cost-based path selection over one MBFS
	// result: Paths candidates, Pruned abandoned by the bounding
	// function, Corners of the winner.
	EvSelect EventType = "select"
	// EvEscalate reports one step up the completion ladder: Step is the
	// 1-based ladder position being entered, Margin its window margin
	// in tracks (-1 = full grid), Relaxed set for the final
	// examine-once-relaxed retry.
	EvEscalate EventType = "escalate"
	// EvRipup reports one rip-up-and-reroute attempt for a stuck net:
	// Victims committed nets lifted, Failed set when the net still
	// does not route.
	EvRipup EventType = "ripup"
	// EvRipupPass summarises one recovery pass over all failed nets:
	// Step is the pass index, Victims the retry attempts made, Paths
	// the nets still failed after the pass. Emitted once per pass even
	// when nothing needed recovery, so every trace records the rip-up
	// machinery's outcome.
	EvRipupPass EventType = "ripup_pass"
	// EvMaze reports one Lee-style maze search (the comparison
	// baseline): Expanded wave states, Failed when no path was found.
	EvMaze EventType = "maze"
	// EvBudget reports one work-budget trip: Net is the net being routed
	// when the budget gave out (empty for run-level trips), Phase the
	// routing phase, Expanded the expansions charged at that point, and
	// Failed distinguishes sticky run-terminating trips (true: total
	// cap, deadline, cancellation) from transient per-net exhaustion
	// (false: the run continues with the next net degraded).
	EvBudget EventType = "budget"
)

// Event is one observation. It is a flat union: every event type uses
// the subset of fields documented on its EventType constant and leaves
// the rest zero; zero fields are omitted from the NDJSON encoding.
type Event struct {
	Type      EventType `json:"ev"`
	Net       string    `json:"net,omitempty"`
	Phase     string    `json:"phase,omitempty"`
	Rank      int       `json:"rank,omitempty"`
	Step      int       `json:"step,omitempty"`
	Margin    int       `json:"margin,omitempty"`
	Levels    int       `json:"levels,omitempty"`
	Expanded  int       `json:"expanded,omitempty"`
	Pruned    int       `json:"pruned,omitempty"`
	Paths     int       `json:"paths,omitempty"`
	Corners   int       `json:"corners,omitempty"`
	Terminals int       `json:"terms,omitempty"`
	Wire      int       `json:"wire,omitempty"`
	Vias      int       `json:"vias,omitempty"`
	Victims   int       `json:"victims,omitempty"`
	Escalated int       `json:"escalated,omitempty"`
	Relaxed   bool      `json:"relaxed,omitempty"`
	Failed    bool      `json:"failed,omitempty"`
	DurNS     int64     `json:"dur_ns,omitempty"`
}

// Tracer receives routing events. Implementations must tolerate events
// from a single goroutine in emission order; the router is serial and
// does not synchronise emits. Tracers that are shared across
// concurrently routing goroutines (one server handling many runs)
// must be goroutine-safe themselves.
type Tracer interface {
	// Enabled reports whether Emit does anything. Hot paths check it
	// before assembling an event.
	Enabled() bool
	// Emit records one event.
	Emit(Event)
}

// Nop is the disabled tracer: Enabled is false, Emit discards.
type Nop struct{}

// Enabled implements Tracer.
func (Nop) Enabled() bool { return false }

// Emit implements Tracer.
func (Nop) Emit(Event) {}

// OrNop returns t, or Nop when t is nil, so callers can hold a Tracer
// field without nil checks on every emit site.
func OrNop(t Tracer) Tracer {
	if t == nil {
		return Nop{}
	}
	return t
}

// multi fans every event out to all member tracers. It is unexported
// so Combine is the only constructor: Combine vets member liveness
// once at build time, so every member of a multi is enabled and Emit
// dispatches without re-checking Enabled() per event.
type multi []Tracer

// Enabled implements Tracer. Liveness was cached at build time
// (Combine drops disabled members), so a non-empty multi is enabled.
func (m multi) Enabled() bool { return len(m) > 0 }

// Emit implements Tracer.
func (m multi) Emit(e Event) {
	for _, t := range m {
		t.Emit(e)
	}
}

// Combine builds the cheapest tracer over the given set: nils and
// disabled tracers are dropped, a single survivor is returned bare,
// and an empty set collapses to Nop.
func Combine(trs ...Tracer) Tracer {
	var live []Tracer
	for _, t := range trs {
		if t != nil && t.Enabled() {
			live = append(live, t)
		}
	}
	switch len(live) {
	case 0:
		return Nop{}
	case 1:
		return live[0]
	}
	return multi(live)
}
