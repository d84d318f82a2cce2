package robust

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

// TestRetryClassificationTable is the provable classification table:
// the four caller-owned taxonomy classes are terminal, internal
// invariant violations (including recovered panics) and unclassified
// errors are retryable — each tested bare, wrapped with provenance,
// and wrapped with fmt.Errorf.
func TestRetryClassificationTable(t *testing.T) {
	cases := []struct {
		name      string
		err       error
		retryable bool
	}{
		{"nil", nil, false},
		{"invalid-input", ErrInvalidInput, false},
		{"unroutable", ErrUnroutable, false},
		{"budget-exhausted", ErrBudgetExhausted, false},
		{"canceled", ErrCanceled, false},
		{"internal", ErrInternal, true},
		{"unclassified", errors.New("socket sadness"), true},
	}
	for _, c := range cases {
		if got := Retryable(c.err); got != c.retryable {
			t.Errorf("Retryable(%s) = %v, want %v", c.name, got, c.retryable)
		}
		if c.err == nil {
			continue
		}
		// Provenance wrapping must not change the class.
		wrapped := Wrap("level-b", "s042", c.err)
		if got := Retryable(wrapped); got != c.retryable {
			t.Errorf("Retryable(Wrap(%s)) = %v, want %v", c.name, got, c.retryable)
		}
		fmtWrapped := fmt.Errorf("attempt 3: %w", c.err)
		if got := Retryable(fmtWrapped); got != c.retryable {
			t.Errorf("Retryable(fmt wrap %s) = %v, want %v", c.name, got, c.retryable)
		}
	}
	// A recovered panic is an ErrInternal by construction — retryable.
	var err error
	func() {
		defer Recover("level-b", &err)
		panic("routing table corrupt")
	}()
	if !Retryable(err) {
		t.Errorf("recovered panic %v not retryable", err)
	}
}

func TestPolicyDelay(t *testing.T) {
	p := Policy{MaxAttempts: 10, BaseDelay: 10 * time.Millisecond, Cap: 80 * time.Millisecond}
	want := []time.Duration{
		10 * time.Millisecond, // after attempt 1
		20 * time.Millisecond,
		40 * time.Millisecond,
		80 * time.Millisecond,
		80 * time.Millisecond, // capped
	}
	for i, w := range want {
		if got := p.Delay(i + 1); got != w {
			t.Errorf("Delay(%d) = %v, want %v", i+1, got, w)
		}
	}
	// Overflow safety: enormous attempt counts stay clamped.
	if got := p.Delay(500); got != 80*time.Millisecond {
		t.Errorf("Delay(500) = %v, want cap", got)
	}
	uncapped := Policy{BaseDelay: time.Hour}
	if got := uncapped.Delay(500); got <= 0 {
		t.Errorf("uncapped Delay(500) overflowed to %v", got)
	}
	if got := (Policy{}).Delay(3); got != 0 {
		t.Errorf("zero-policy Delay = %v, want 0", got)
	}
}

// TestDoNeverRetriesTerminal drives Do with each terminal class and
// asserts exactly one attempt is consumed.
func TestDoNeverRetriesTerminal(t *testing.T) {
	for _, terminal := range []error{ErrInvalidInput, ErrUnroutable, ErrBudgetExhausted, ErrCanceled} {
		p := Policy{MaxAttempts: 5, BaseDelay: time.Nanosecond}
		calls := 0
		attempts, err := p.Do(context.Background(), func(time.Duration) {}, func(int) error {
			calls++
			return Wrap("level-b", "n1", terminal)
		})
		if calls != 1 || attempts != 1 {
			t.Errorf("%v: %d calls, %d attempts — terminal errors must not retry", terminal, calls, attempts)
		}
		if !errors.Is(err, terminal) {
			t.Errorf("Do swallowed the terminal error: %v", err)
		}
	}
}

func TestDoRetriesUntilSuccess(t *testing.T) {
	p := Policy{MaxAttempts: 5, BaseDelay: time.Millisecond, Cap: 4 * time.Millisecond}
	var slept []time.Duration
	sleep := func(d time.Duration) { slept = append(slept, d) }
	failures := 2
	attempts, err := p.Do(context.Background(), sleep, func(attempt int) error {
		if attempt <= failures {
			return fmt.Errorf("attempt %d: %w", attempt, ErrInternal)
		}
		return nil
	})
	if err != nil || attempts != 3 {
		t.Fatalf("Do = %d attempts, %v; want 3, nil", attempts, err)
	}
	if len(slept) != 2 || slept[0] != time.Millisecond || slept[1] != 2*time.Millisecond {
		t.Errorf("backoff sequence = %v, want [1ms 2ms]", slept)
	}
}

func TestDoExhaustsAttempts(t *testing.T) {
	p := Policy{MaxAttempts: 3}
	calls := 0
	attempts, err := p.Do(context.Background(), func(time.Duration) {}, func(int) error {
		calls++
		return ErrInternal
	})
	if calls != 3 || attempts != 3 || !errors.Is(err, ErrInternal) {
		t.Fatalf("Do = %d calls, %d attempts, %v; want 3, 3, ErrInternal", calls, attempts, err)
	}
}

func TestDoStopsOnCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	p := Policy{MaxAttempts: 10, BaseDelay: time.Nanosecond}
	attempts, err := p.Do(ctx, func(time.Duration) { cancel() }, func(int) error {
		return ErrInternal
	})
	if attempts != 1 {
		t.Fatalf("Do kept retrying after cancel: %d attempts", attempts)
	}
	if !errors.Is(err, ErrInternal) {
		t.Fatalf("Do err = %v, want the last attempt error", err)
	}
}
