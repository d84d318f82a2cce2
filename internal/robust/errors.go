// Package robust is the routing pipeline's hardening layer: a typed
// error taxonomy shared by every routing package, and the work-budget
// machinery that makes each search interruptible and bounded.
//
// The level B router is an exhaustive MBFS over the full over-cell
// grid, so a hostile or degenerate instance (huge congestion windows,
// obstacle walls, thousand-terminal nets) can burn unbounded time. The
// north star is a production-scale service under heavy traffic, which
// demands bounded per-request work, cancellation, and best-effort
// answers under overload — explicit budgets rather than open-ended
// search, in the spirit of the congestion/capacity budgets of early
// global routers (STAIRoute, Albrecht's multicommodity-flow router).
//
// Error taxonomy. All routing failures funnel into four sentinel
// classes plus one escape hatch, matched with errors.Is:
//
//   - ErrInvalidInput: the request was malformed (empty or single-pin
//     net, duplicate terminals, zero-track grid, terminal inside an
//     obstacle). The caller must fix the input; retrying cannot help.
//   - ErrUnroutable: the input was valid but no realisation exists
//     within the search's corner and window limits, or level A ran out
//     of feedthrough slots or channel capacity. Retrying with a
//     different configuration (more rip-up passes, relaxed visit rule)
//     may help.
//   - ErrBudgetExhausted: the configured work budget (expansion count
//     or wall-clock deadline) ran out before the search finished. The
//     partial result is still valid, verified geometry.
//   - ErrCanceled: the caller's context was canceled mid-route. Like
//     budget exhaustion, whatever was committed before the cancel is a
//     valid partial result.
//   - ErrInternal: an invariant the code relies on was violated (a
//     recovered panic, a track missing from its own list). Always a
//     bug; never the caller's fault.
//
// Apart from deadline and cancellation trips, which depend on the
// clock and the caller, a failure is deterministic: the same input and
// configuration fail with the same error every time, so nothing
// retries a failed run (internal/robust/fault pins this on its hostile
// corpus).
//
// Errors carry net and phase provenance via the Error wrapper so a
// per-net failure deep in the search surfaces at the API boundary as
// "level-b: net s042: ...: budget exhausted" and still matches
// errors.Is(err, ErrBudgetExhausted).
package robust

import (
	"errors"
	"fmt"
)

// The taxonomy sentinels. See the package comment for the contract of
// each class.
var (
	ErrInvalidInput    = errors.New("invalid input")
	ErrUnroutable      = errors.New("unroutable")
	ErrBudgetExhausted = errors.New("budget exhausted")
	ErrCanceled        = errors.New("canceled")
	ErrInternal        = errors.New("internal invariant violated")
)

// Error attaches routing provenance — the pipeline phase and the net
// being routed — to an underlying cause. It unwraps to the cause, so
// errors.Is sees through it to the taxonomy sentinel.
type Error struct {
	// Phase names the pipeline stage: "level-a", "level-b", "search",
	// "channel", "verify", ...
	Phase string
	// Net is the net being routed when the error occurred; empty for
	// whole-run errors.
	Net string
	// Err is the underlying cause.
	Err error
}

// Error implements the error interface.
func (e *Error) Error() string {
	switch {
	case e.Phase != "" && e.Net != "":
		return fmt.Sprintf("%s: net %q: %v", e.Phase, e.Net, e.Err)
	case e.Phase != "":
		return fmt.Sprintf("%s: %v", e.Phase, e.Err)
	case e.Net != "":
		return fmt.Sprintf("net %q: %v", e.Net, e.Err)
	}
	return e.Err.Error()
}

// Unwrap exposes the cause to errors.Is / errors.As.
func (e *Error) Unwrap() error { return e.Err }

// Wrap attaches phase/net provenance to err. A nil err wraps to nil.
// Double wrapping with identical provenance is collapsed so retry
// loops do not grow error chains without bound.
func Wrap(phase, net string, err error) error {
	if err == nil {
		return nil
	}
	var prev *Error
	if errors.As(err, &prev) && prev.Phase == phase && prev.Net == net {
		return err
	}
	return &Error{Phase: phase, Net: net, Err: err}
}

// Invalidf builds an ErrInvalidInput with a formatted description.
func Invalidf(format string, args ...any) error {
	return fmt.Errorf(format+": %w", append(args, ErrInvalidInput)...)
}

// Recover converts a panic in the surrounding function into a typed
// ErrInternal, assigned to *errp. Use it as the first deferred call of
// each API entry point:
//
//	func Route(...) (res *Result, err error) {
//		defer robust.Recover("flow.Proposed", &err)
//		...
//
// A non-nil *errp is preserved when no panic occurred. Recover does
// not swallow runtime.Goexit.
func Recover(phase string, errp *error) {
	if r := recover(); r != nil {
		*errp = &Error{Phase: phase, Err: fmt.Errorf("panic: %v: %w", r, ErrInternal)}
	}
}
