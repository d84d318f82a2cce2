package metrics

import (
	"strings"
	"sync"
	"testing"

	"overcell/internal/obs"
)

// count returns how many events of type ev tr tallied.
func count(tr *Tracer, ev obs.EventType) int64 { return tr.events[eventIndex[ev]].Value() }

// TestSummaryGolden pins the exact Summary formatting of a small,
// fully deterministic event stream.
func TestSummaryGolden(t *testing.T) {
	c := NewTracer(nil)
	c.Emit(obs.Event{Type: obs.EvPhaseStart, Phase: "level-b"})
	c.Emit(obs.Event{Type: obs.EvNetStart, Net: "a", Rank: 1, Terminals: 2})
	c.Emit(obs.Event{Type: obs.EvMBFS, Levels: 1, Expanded: 4, Pruned: 1, Paths: 2})
	c.Emit(obs.Event{Type: obs.EvSelect, Paths: 2, Pruned: 1, Corners: 1})
	c.Emit(obs.Event{Type: obs.EvNetDone, Net: "a", Wire: 64, Vias: 2, Corners: 1})
	c.Emit(obs.Event{Type: obs.EvRipupPass, Step: 0})
	c.Emit(obs.Event{Type: obs.EvPhaseEnd, Phase: "level-b", DurNS: 2_000_000})

	want := `events: 7 total
  mbfs         1
  net_done     1
  net_start    1
  phase_end    1
  phase_start  1
  ripup_pass   1
  select       1
nets: 1 routed, 0 failed attempts; wire=64 vias=2 corners=1
search: 4 nodes expanded, 1 visit-rule prunes, 1 selection prunes, 0 searches exhausted
  mbfs levels:   n=1 mean=1.0 max=1 [1-1]:1
  mbfs expanded: n=1 mean=4.0 max=4 [4-7]:1
  mbfs paths:    n=1 mean=2.0 max=2 [2-3]:1
escalations: none (relaxed retries: 0)
rip-up: 1 passes, 0 attempts, 0 recovered
budget: 0 trips (0 sticky)
phase level-b  2.000ms
`
	if got := c.Summary(); got != want {
		t.Errorf("summary golden mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestTracerAggregation(t *testing.T) {
	c := NewTracer(nil)
	c.Emit(obs.Event{Type: obs.EvMBFS, Levels: 2, Expanded: 10, Pruned: 4, Paths: 3})
	c.Emit(obs.Event{Type: obs.EvMBFS, Levels: 5, Expanded: 30, Pruned: 1, Failed: true})
	c.Emit(obs.Event{Type: obs.EvSelect, Paths: 3, Pruned: 2})
	c.Emit(obs.Event{Type: obs.EvEscalate, Step: 2, Margin: 4})
	c.Emit(obs.Event{Type: obs.EvEscalate, Step: 5, Relaxed: true})
	c.Emit(obs.Event{Type: obs.EvNetDone, Net: "a", Wire: 100, Vias: 4, Corners: 2})
	c.Emit(obs.Event{Type: obs.EvNetDone, Net: "b", Failed: true})
	c.Emit(obs.Event{Type: obs.EvRipup, Net: "b", Victims: 3})
	c.Emit(obs.Event{Type: obs.EvRipupPass, Step: 0, Victims: 1})
	c.Emit(obs.Event{Type: obs.EvMaze, Expanded: 7})
	c.Emit(obs.Event{Type: obs.EvPhaseEnd, Phase: "level-b", DurNS: 1500000})

	if c.expanded.Value() != 47 || c.pruned.Value() != 5 || c.selectPruned.Value() != 2 {
		t.Errorf("search tallies: expanded=%d pruned=%d selpruned=%d",
			c.expanded.Value(), c.pruned.Value(), c.selectPruned.Value())
	}
	if c.searchFailed.Value() != 1 {
		t.Errorf("failed searches = %d", c.searchFailed.Value())
	}
	if c.netsRouted.Value() != 1 || c.netsFailed.Value() != 1 || c.wire.Value() != 100 || c.vias.Value() != 4 {
		t.Errorf("net tallies: %d/%d wire=%d vias=%d",
			c.netsRouted.Value(), c.netsFailed.Value(), c.wire.Value(), c.vias.Value())
	}
	if c.ripupAttempts.Value() != 1 || c.ripupWins.Value() != 1 || c.ripupPasses.Value() != 1 {
		t.Errorf("ripup tallies: %d/%d/%d", c.ripupAttempts.Value(), c.ripupWins.Value(), c.ripupPasses.Value())
	}
	if c.escalations(2).Value() != 1 || c.relaxed.Value() != 1 {
		t.Errorf("escalations: step2=%d relaxed=%d", c.escalations(2).Value(), c.relaxed.Value())
	}
	if c.Events() != 11 {
		t.Errorf("events = %d, want 11", c.Events())
	}
	sum := c.Summary()
	for _, want := range []string{"mbfs", "escalations: step2:1 step5:1", "rip-up: 1 passes, 1 attempts, 1 recovered", "phase level-b"} {
		if !strings.Contains(sum, want) {
			t.Errorf("summary missing %q:\n%s", want, sum)
		}
	}
	// Summary is deterministic across calls (sorted map iteration).
	if c.Summary() != sum {
		t.Error("summary not deterministic")
	}
}

// TestTracerConcurrentSummary reads Summary and Events while emitters
// are still running — the ops-endpoint pattern of GETting a run
// mid-route. Run under -race this pins the tracer's synchronisation;
// the final tallies must also come out exact.
func TestTracerConcurrentSummary(t *testing.T) {
	const goroutines, events = 4, 300
	c := NewTracer(nil)
	var emitters, readers sync.WaitGroup
	stop := make(chan struct{})
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = c.Summary()
				_ = count(c, obs.EvNetDone)
				_ = c.Events()
			}
		}
	}()
	for g := 0; g < goroutines; g++ {
		emitters.Add(1)
		go func() {
			defer emitters.Done()
			for i := 0; i < events; i++ {
				c.Emit(obs.Event{Type: obs.EvMBFS, Expanded: 2, Levels: i % 4})
				c.Emit(obs.Event{Type: obs.EvNetDone, Wire: 7, Vias: 1})
				c.Emit(obs.Event{Type: obs.EvEscalate, Step: 1 + i%3})
				c.Emit(obs.Event{Type: obs.EvPhaseEnd, Phase: "level-b", DurNS: 5})
			}
		}()
	}
	emitters.Wait()
	close(stop)
	readers.Wait()
	if got := count(c, obs.EvNetDone); got != goroutines*events {
		t.Errorf("net_done = %d, want %d", got, goroutines*events)
	}
	if got := c.Events(); got != 4*goroutines*events {
		t.Errorf("events = %d, want %d", got, 4*goroutines*events)
	}
	if c.expanded.Value() != 2*goroutines*events || c.wire.Value() != 7*goroutines*events {
		t.Errorf("expanded=%d wire=%d", c.expanded.Value(), c.wire.Value())
	}
}

// statsStream is one event of each kind a routed net emits, escalation
// and phase boundary included.
var statsStream = []obs.Event{
	{Type: obs.EvPhaseStart, Phase: "level-b"},
	{Type: obs.EvNetStart, Net: "a", Rank: 1, Terminals: 2},
	{Type: obs.EvMBFS, Levels: 1, Expanded: 4, Pruned: 1, Paths: 2},
	{Type: obs.EvSelect, Paths: 2, Pruned: 1, Corners: 1},
	{Type: obs.EvEscalate, Step: 2, Margin: 4},
	{Type: obs.EvNetDone, Net: "a", Wire: 64, Vias: 2, Corners: 1},
	{Type: obs.EvRipupPass},
	{Type: obs.EvPhaseEnd, Phase: "level-b", DurNS: 2_000_000},
}

// TestTracerEmitAllocs pins the steady state of the tracer a server
// shares across runs: once each ladder step and phase has been seen,
// Emit allocates nothing.
func TestTracerEmitAllocs(t *testing.T) {
	for _, reg := range []*Registry{nil, NewRegistry()} {
		tr := NewTracer(reg)
		for _, e := range statsStream {
			tr.Emit(e)
		}
		if n := testing.AllocsPerRun(100, func() {
			for _, e := range statsStream {
				tr.Emit(e)
			}
		}); n != 0 {
			t.Errorf("registry=%v: %v allocs per stream after warm-up, want 0", reg != nil, n)
		}
	}
}

// TestTracerStatsAllocs bounds what a per-run -stats aggregate costs:
// building NewTracer(nil) and feeding it its first events allocates no
// more than the seven allocations of the aggregate it replaced.
func TestTracerStatsAllocs(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() {
		tr := NewTracer(nil)
		for _, e := range statsStream {
			tr.Emit(e)
		}
	}); n > 7 {
		t.Errorf("%v allocs to build and feed NewTracer(nil), want <= 7", n)
	}
}

// TestTracerRegistersOnce: a registry exposes one tracer's own tallies,
// so a second tracer on it, which would count unseen, panics.
func TestTracerRegistersOnce(t *testing.T) {
	r := NewRegistry()
	NewTracer(r)
	defer func() {
		if recover() == nil {
			t.Error("second tracer on one registry did not panic")
		}
	}()
	NewTracer(r)
}
