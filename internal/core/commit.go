package core

import "overcell/internal/grid"

// CommitObserver receives a notification each time one net's metal
// lands on the routing grid: every first-pass net and every rip-up
// retry counts. Calls arrive in the grid's mutation order, so a
// deterministic observer sees a deterministic call sequence. rank is
// the net's 1-based position in the routing order (rip-up retries
// repeat the original rank), failed marks attempts whose net could not
// complete (their partial tree is still committed). The grid is the
// grid after the commit; the observer must not mutate it and must not
// retain it past the call.
//
// Every call comes from the goroutine running Route, so
// implementations need no locking against the router — only against
// their own concurrent readers. The obs/congest Series is the
// canonical implementation; a nil Config.Congest disables the hook
// entirely.
type CommitObserver interface {
	NetCommitted(rank int, net string, failed bool, g *grid.Grid)
}
