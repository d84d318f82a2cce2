package perf

import (
	"sync"
	"time"

	"overcell/internal/obs"
)

// Options configures a Collector. The zero value measures the live
// process: wall clock and runtime/metrics sampler.
type Options struct {
	// Run identifies the run in the report (an instance name, a bench
	// workload tag).
	Run string
	// Clock supplies the run-bound timestamps; nil means the wall clock.
	// Determinism tests inject a constant clock, collapsing the run's
	// wall time to zero.
	Clock func() time.Time
	// Sampler supplies the runtime counter readings taken at phase
	// boundaries. Nil means RuntimeSampler(). Determinism tests inject a
	// constant sampler, collapsing every delta to zero.
	Sampler func() Sample
}

// Collector accumulates one run's performance attribution. It is an
// obs.Tracer: phase boundaries trigger runtime samples. Emit calls
// arrive from the run's single emitting goroutine; Report may be called
// concurrently at any time for a mid-run snapshot.
type Collector struct {
	runID   string
	clock   func() time.Time
	sampler func() Sample

	mu       sync.Mutex
	started  bool
	finished bool
	startT   time.Time
	endT     time.Time
	startS   Sample
	endS     Sample
	goroPeak int64

	phaseOrder []string
	phases     map[string]*phaseAgg
	open       *phaseAgg
	openS      Sample
}

type phaseAgg struct {
	name   string
	count  int
	wallNS int64
	d      Sample
}

// New builds a Collector over o.
func New(o Options) *Collector {
	clk := o.Clock
	if clk == nil {
		clk = time.Now //oc:clock-ok injectable default; determinism tests pin a constant clock
	}
	smp := o.Sampler
	if smp == nil {
		smp = RuntimeSampler()
	}
	return &Collector{
		runID:   o.Run,
		clock:   clk,
		sampler: smp,
		phases:  make(map[string]*phaseAgg),
	}
}

// Start opens the run window: first call samples the clock and the
// runtime counters; later calls are no-ops so a shared collector can
// span several flow invocations.
func (c *Collector) Start() {
	c.mu.Lock()
	if !c.started {
		c.started = true
		c.startT = c.clock()
		c.startS = c.sampler()
		c.noteLocked(c.startS)
	}
	c.mu.Unlock()
}

// Finish closes the run window (first call wins) and marks the report
// complete. The owner of the collector calls it once routing is done.
func (c *Collector) Finish() {
	c.mu.Lock()
	if c.started && !c.finished {
		c.finished = true
		c.endT = c.clock()
		c.endS = c.sampler()
		c.noteLocked(c.endS)
	}
	c.mu.Unlock()
}

// noteLocked folds a fresh sample's instantaneous readings into the
// run-level aggregates. Caller holds c.mu.
func (c *Collector) noteLocked(s Sample) {
	if s.Goroutines > c.goroPeak {
		c.goroPeak = s.Goroutines
	}
}

// Enabled implements obs.Tracer: the collector always listens; its
// per-event cost is one type switch for everything but phase
// boundaries.
func (c *Collector) Enabled() bool { return true }

// Emit implements obs.Tracer. Only phase boundaries do work — the
// phase wall time is taken from the event's own DurNS (measured by the
// flow's clock), while the
// allocation delta across the phase comes from the collector's
// sampler.
//
//oc:hotpath
func (c *Collector) Emit(e obs.Event) {
	switch e.Type {
	case obs.EvPhaseStart:
		c.mu.Lock()
		p := c.phaseLocked(e.Phase)
		c.open = p
		c.openS = c.sampler()
		c.noteLocked(c.openS)
		c.mu.Unlock()
	case obs.EvPhaseEnd:
		c.mu.Lock()
		p := c.open
		if p == nil || p.name != e.Phase {
			// Unmatched end (no start seen): record wall time only.
			p = c.phaseLocked(e.Phase)
			p.count++
			p.wallNS += e.DurNS
			c.mu.Unlock()
			return
		}
		s := c.sampler()
		p.count++
		p.wallNS += e.DurNS
		p.d = p.d.Add(s.Sub(c.openS))
		c.open = nil
		c.noteLocked(s)
		c.mu.Unlock()
	}
}

// phaseLocked returns the named phase aggregate, creating it in
// first-seen order. Caller holds c.mu.
func (c *Collector) phaseLocked(name string) *phaseAgg {
	p := c.phases[name]
	if p == nil {
		p = &phaseAgg{name: name}
		c.phases[name] = p
		c.phaseOrder = append(c.phaseOrder, name)
	}
	return p
}
