package flow

import (
	"testing"
	"time"

	"overcell/internal/gen"
	"overcell/internal/obs"
)

// stepClock is a deterministic clock advancing a fixed amount per
// read.
type stepClock struct {
	now  time.Time
	step time.Duration
}

func (c *stepClock) read() time.Time {
	t := c.now
	c.now = c.now.Add(c.step)
	return t
}

// eventLog records raw events in emission order.
type eventLog struct {
	events []obs.Event
}

func (l *eventLog) Enabled() bool    { return true }
func (l *eventLog) Emit(e obs.Event) { l.events = append(l.events, e) }

// clockReader logs events and, when read is set, reads the phase
// clock on phase_start, standing in for a tracer whose phase_start work
// takes time.
type clockReader struct {
	eventLog
	read func() time.Time
}

func (c *clockReader) Emit(e obs.Event) {
	if e.Type == obs.EvPhaseStart && c.read != nil {
		c.read()
	}
	c.eventLog.Emit(e)
}

// TestPhaseUsesInjectedClock pins phase timing to the injected clock:
// one start read, one end read, so DurNS is exactly one step. The start
// read comes before phase_start is emitted, so a tracer's work on that
// event falls inside the phase: when the tracer reads the same clock,
// DurNS is two steps.
func TestPhaseUsesInjectedClock(t *testing.T) {
	const step = 7 * time.Millisecond
	for _, tc := range []struct {
		name        string
		readOnStart bool
		steps       int64
	}{
		{"plain tracer", false, 1},
		{"tracer reads clock on phase_start", true, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clock := &stepClock{now: time.Unix(1000, 0), step: step}
			log := &clockReader{}
			if tc.readOnStart {
				log.read = clock.read
			}
			end := phase(log, clock.read, "level-b")
			end()
			if len(log.events) != 2 {
				t.Fatalf("phase emitted %d events, want 2", len(log.events))
			}
			if log.events[0].Type != obs.EvPhaseStart || log.events[1].Type != obs.EvPhaseEnd {
				t.Fatalf("phase emitted %v, %v; want phase_start, phase_end", log.events[0].Type, log.events[1].Type)
			}
			if got, want := log.events[1].DurNS, tc.steps*step.Nanoseconds(); got != want {
				t.Errorf("phase_end DurNS = %d, want %d (%d clock steps)", got, want, tc.steps)
			}
		})
	}
}

// TestOptionsClockDefault keeps the zero Options usable: the default
// clock must be callable and monotone enough to time a phase.
func TestOptionsClockDefault(t *testing.T) {
	var o Options
	c := o.clock()
	if c == nil {
		t.Fatal("Options.clock() = nil")
	}
	a, b := c(), c()
	if b.Before(a) {
		t.Errorf("default clock went backwards: %v then %v", a, b)
	}
	o.Clock = (&stepClock{now: time.Unix(42, 0), step: time.Second}).read
	if got := o.clock()(); !got.Equal(time.Unix(42, 0)) {
		t.Errorf("injected clock read %v, want %v", got, time.Unix(42, 0))
	}
}

// TestFlowPhaseTimingDeterministic runs a real (tiny) flow twice with
// the same fixed-step clock and asserts identical phase_end durations —
// the property the injectable clock exists for.
func TestFlowPhaseTimingDeterministic(t *testing.T) {
	durations := func() []int64 {
		log := &eventLog{}
		opt := Options{
			Tracer: log,
			Clock:  (&stepClock{now: time.Unix(0, 0), step: 3 * time.Millisecond}).read,
		}
		inst := build(t, gen.Ami33Like)
		if _, err := Proposed(inst, opt); err != nil {
			t.Fatalf("Proposed: %v", err)
		}
		var durs []int64
		for _, e := range log.events {
			if e.Type == obs.EvPhaseEnd {
				durs = append(durs, e.DurNS)
			}
		}
		return durs
	}
	a, b := durations(), durations()
	if len(a) == 0 {
		t.Fatal("flow emitted no phase_end events")
	}
	if len(a) != len(b) {
		t.Fatalf("runs emitted %d vs %d phase_end events", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("phase %d: DurNS %d vs %d with the same injected clock", i, a[i], b[i])
		}
	}
}
