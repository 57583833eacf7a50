package errdefs_test

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"autopipe/internal/errdefs"
)

// The errdefs contract: every sentinel survives arbitrary layers of %w
// wrapping and matches no other sentinel, so a caller's errors.Is dispatch
// (the daemon's HTTP status mapping, Tables III/IV's OOM check) works no
// matter how deep in the stack the failure originated.
func TestSentinelsSurviveWrapping(t *testing.T) {
	sentinels := []error{
		errdefs.ErrInfeasible,
		errdefs.ErrOOM,
		errdefs.ErrBadConfig,
		errdefs.ErrDeadlock,
		errdefs.ErrInternal,
	}
	for _, s := range sentinels {
		wrapped := fmt.Errorf("layer three: %w", fmt.Errorf("layer two: %w", fmt.Errorf("layer one: %w", s)))
		if !errors.Is(wrapped, s) {
			t.Errorf("errors.Is lost sentinel %v through three wraps", s)
		}
		for _, other := range sentinels {
			if other != s && errors.Is(wrapped, other) {
				t.Errorf("wrapped %v spuriously matches %v", s, other)
			}
		}
	}
}

// ErrInternal reports a bug, not something the caller can fix: it must match
// none of the sentinels a caller answers by changing its input or re-planning
// (the daemon's 400 and 422 statuses, Tables III/IV's OOM markers).
func TestInternalIsNotRecoverable(t *testing.T) {
	err := fmt.Errorf("%w: exec: device 0 leaked 128 bytes of activations", errdefs.ErrInternal)
	for _, recoverable := range []error{errdefs.ErrBadConfig, errdefs.ErrInfeasible, errdefs.ErrOOM} {
		if errors.Is(err, recoverable) {
			t.Errorf("ErrInternal matches recoverable sentinel %v", recoverable)
		}
	}
	if !errors.Is(err, errdefs.ErrInternal) {
		t.Error("wrapped ErrInternal lost its identity")
	}
}

// Sentinels must not swallow context errors: a timed-out plan search reports
// context.DeadlineExceeded, not a sentinel, and the two are distinguishable.
func TestContextErrorsStayDistinct(t *testing.T) {
	err := fmt.Errorf("planning: %w", context.DeadlineExceeded)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Error("wrapped deadline error lost its identity")
	}
	if errors.Is(err, errdefs.ErrInfeasible) {
		t.Error("context error spuriously matches ErrInfeasible")
	}
}
