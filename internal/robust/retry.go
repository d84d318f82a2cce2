package robust

import "time"

// Policy is ignored: ocserved routes a run once per process life.
//
// Deprecated: Policy exists only so that the benchmark under bench/,
// which must also build against older checkouts, keeps compiling.
type Policy struct {
	MaxAttempts int
	BaseDelay   time.Duration
	Cap         time.Duration
}
