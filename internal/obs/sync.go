package obs

import "sync"

// synced serialises access to a wrapped tracer. See Synced.
type synced struct {
	mu sync.Mutex
	t  Tracer
}

// Synced wraps t so that Emit may be called from multiple goroutines
// concurrently, relaxing the single-goroutine Tracer contract: each
// Emit runs under a mutex, so the wrapped tracer still observes a
// serial event stream (in an arbitrary but valid interleaving of the
// emitters). Enabled is forwarded without locking — liveness is a
// build-time property of every tracer in this package.
//
// Use it when one tracer aggregates events from concurrent routing
// runs (a Writer shared by concurrent server jobs). Tracers that are already
// goroutine-safe — the metrics registry adapter, Collector, Nop —
// do not need it. A nil or disabled t
// collapses to Nop so the wrapper never costs a lock when tracing is
// off.
func Synced(t Tracer) Tracer {
	t = OrNop(t)
	if !t.Enabled() {
		return Nop{}
	}
	return &synced{t: t}
}

// Enabled implements Tracer.
func (s *synced) Enabled() bool { return true }

// Emit implements Tracer.
func (s *synced) Emit(e Event) {
	s.mu.Lock()
	s.t.Emit(e)
	s.mu.Unlock()
}
