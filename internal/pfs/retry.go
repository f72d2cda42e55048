package pfs

import (
	"fmt"
	"time"
)

// RetryPolicy is a bounded exponential-backoff retry loop for transient
// I/O faults, shared by the checkpoint writer and the MPI-IO layer. Only
// *TransientError failures are retried; anything else aborts immediately.
type RetryPolicy struct {
	// MaxAttempts bounds total tries (default 5).
	MaxAttempts int
	// BaseDelay is the first backoff; it doubles per retry (default 50µs).
	BaseDelay time.Duration
	// MaxDelay caps the backoff (default 5ms).
	MaxDelay time.Duration
}

// DefaultRetry is the policy used by checkpoint and mpiio.
func DefaultRetry() RetryPolicy {
	return RetryPolicy{MaxAttempts: 5, BaseDelay: 50 * time.Microsecond, MaxDelay: 5 * time.Millisecond}
}

// Do runs op, retrying transient failures with exponential backoff. It
// returns nil on the first success, the original error for non-transient
// failures, and a wrapped "giving up" error when the attempt budget is
// exhausted (still IsTransient, so callers can classify).
func (p RetryPolicy) Do(op func() error) error {
	attempts := p.MaxAttempts
	if attempts <= 0 {
		attempts = 5
	}
	delay := p.BaseDelay
	if delay <= 0 {
		delay = 50 * time.Microsecond
	}
	maxDelay := p.MaxDelay
	if maxDelay <= 0 {
		maxDelay = 5 * time.Millisecond
	}
	var err error
	for i := 0; i < attempts; i++ {
		if err = op(); err == nil {
			return nil
		}
		if !IsTransient(err) {
			return err
		}
		if i < attempts-1 {
			time.Sleep(delay)
			delay *= 2
			if delay > maxDelay {
				delay = maxDelay
			}
		}
	}
	return fmt.Errorf("pfs: giving up after %d attempts: %w", attempts, err)
}
