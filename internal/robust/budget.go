package robust

import (
	"context"
	"errors"
	"fmt"
	"time"
)

// Limits bounds the work one routing run may spend. The zero value
// means unlimited; individual fields combine (whichever trips first
// wins).
type Limits struct {
	// NetExpansions caps the search-tree nodes one net's routing
	// attempt may create, over all of its two-terminal connections and
	// ladder escalations. A net that trips this cap is reported as a
	// degraded (failed) net with ErrBudgetExhausted; the run continues
	// with the next net.
	NetExpansions int64
	// TotalExpansions caps the nodes created across the entire run.
	// Tripping it is sticky: every subsequent search fails fast and the
	// run returns its partial result with ErrBudgetExhausted.
	TotalExpansions int64
	// Timeout is a wall-clock bound measured from NewBudget. Like
	// TotalExpansions it is sticky and surfaces as ErrBudgetExhausted.
	Timeout time.Duration
	// Deadline is an absolute wall-clock bound; zero means none. When
	// both Timeout and Deadline are set the earlier one applies.
	Deadline time.Time
}

// Zero reports whether the limits impose no bound at all.
func (l Limits) Zero() bool {
	return l.NetExpansions == 0 && l.TotalExpansions == 0 &&
		l.Timeout == 0 && l.Deadline.IsZero()
}

// pollStride is how many charged expansions pass between wall-clock /
// context polls. Charging is on the search hot path; at stride 1024
// the amortised cost of a Charge is an add and two compares, keeping
// the measured overhead on the headline workloads under 2%.
const pollStride = 1024

// Budget meters one routing run against a context and Limits. One run
// goroutine owns a Budget: it is not safe for concurrent use, which
// keeps Charge on the search hot path to a few plain adds and compares.
//
// A nil *Budget is valid everywhere and means "unbounded"; callers
// thread budgets without nil checks.
type Budget struct {
	ctx      context.Context
	deadline time.Time // zero = none
	netMax   int64
	totalMax int64
	net      int64 // expansions charged since BeginNet
	total    int64 // expansions charged since NewBudget
	poll     int64 // countdown to the next liveness poll
	sticky   error // first run-terminating trip; later trips keep it
}

// NewBudget builds a budget over ctx and l. A nil ctx means
// context.Background(). When ctx itself carries a deadline, the
// earliest of ctx's deadline, l.Deadline and now+l.Timeout applies.
// Unbounded limits over a background context return a non-nil Budget
// that never trips, so call sites need no special casing.
func NewBudget(ctx context.Context, l Limits) *Budget {
	if ctx == nil {
		ctx = context.Background()
	}
	b := &Budget{
		ctx:      ctx,
		deadline: l.Deadline,
		netMax:   l.NetExpansions,
		totalMax: l.TotalExpansions,
		poll:     pollStride,
	}
	if l.Timeout > 0 {
		if d := time.Now().Add(l.Timeout); b.deadline.IsZero() || d.Before(b.deadline) { //oc:clock-ok timeout budgets are wall-clock by contract
			b.deadline = d
		}
	}
	if d, ok := ctx.Deadline(); ok && (b.deadline.IsZero() || d.Before(b.deadline)) {
		b.deadline = d
	}
	return b
}

// BeginNet opens a new per-net accounting window: the per-net
// expansion counter resets, the run-wide counters continue.
func (b *Budget) BeginNet() {
	if b == nil {
		return
	}
	b.net = 0
}

// Charge spends n units of search work (one unit per search-tree node
// created). It returns nil while the budget holds; a typed error — an
// ErrBudgetExhausted or ErrCanceled wrap — once a bound trips.
// Per-net exhaustion is transient (the next BeginNet starts fresh);
// total exhaustion, deadline expiry and cancellation are sticky.
func (b *Budget) Charge(n int) error {
	if b == nil {
		return nil
	}
	if b.sticky != nil {
		return b.sticky
	}
	nn := int64(n)
	b.net += nn
	b.total += nn
	if b.totalMax > 0 && b.total > b.totalMax {
		return b.trip(fmt.Errorf("total budget of %d expansions exhausted: %w",
			b.totalMax, ErrBudgetExhausted))
	}
	if b.netMax > 0 && b.net > b.netMax {
		return fmt.Errorf("per-net budget of %d expansions exhausted: %w",
			b.netMax, ErrBudgetExhausted)
	}
	if b.poll -= nn; b.poll <= 0 {
		b.poll = pollStride
		return b.checkLive()
	}
	return nil
}

// trip records a sticky run-terminating error exactly once; the first
// caller wins and later trips observe the original cause.
func (b *Budget) trip(err error) error {
	if b.sticky == nil {
		b.sticky = err
	}
	return b.sticky
}

// Err reports the budget's sticky state, polling the context and the
// deadline. It is the cheap between-nets / between-phases check; nil
// means the run may continue.
func (b *Budget) Err() error {
	if b == nil {
		return nil
	}
	if b.sticky != nil {
		return b.sticky
	}
	return b.checkLive()
}

// checkLive polls the context and the wall clock, recording a sticky
// typed error when either has expired. Cancellation maps to
// ErrCanceled; deadline expiry (the context's or the budget's own) is
// a spent wall-clock budget and maps to ErrBudgetExhausted.
func (b *Budget) checkLive() error {
	select {
	case <-b.ctx.Done():
		cause := b.ctx.Err()
		if errors.Is(cause, context.DeadlineExceeded) {
			return b.trip(fmt.Errorf("context deadline exceeded: %w", ErrBudgetExhausted))
		}
		return b.trip(fmt.Errorf("routing %w", ErrCanceled))
	default:
	}
	if !b.deadline.IsZero() && !time.Now().Before(b.deadline) { //oc:clock-ok deadline checks are wall-clock by contract
		return b.trip(fmt.Errorf("deadline budget exhausted: %w", ErrBudgetExhausted))
	}
	return nil
}

// Used returns the expansions charged over the whole run.
func (b *Budget) Used() int64 {
	if b == nil {
		return 0
	}
	return b.total
}

// NetUsed returns the expansions charged since the last BeginNet.
func (b *Budget) NetUsed() int64 {
	if b == nil {
		return 0
	}
	return b.net
}
