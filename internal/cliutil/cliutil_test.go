package cliutil

import (
	"context"
	"errors"
	"flag"
	"testing"
	"time"
)

func parsePlanner(t *testing.T, args ...string) *PlannerFlags {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	pf := RegisterPlanner(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %v: %v", args, err)
	}
	return pf
}

func TestPlannerDefaults(t *testing.T) {
	pf := parsePlanner(t)
	if pf.Timeout != 0 {
		t.Fatalf("defaults = %+v, want zero values", *pf)
	}
}

func TestContextWithoutTimeout(t *testing.T) {
	pf := parsePlanner(t)
	ctx, cancel := pf.Context()
	if _, ok := ctx.Deadline(); ok {
		t.Error("no -timeout, but context has a deadline")
	}
	cancel()
	if ctx.Err() == nil {
		t.Error("cancel did not cancel the context")
	}
}

func TestContextWithTimeout(t *testing.T) {
	pf := parsePlanner(t, "-timeout", "250ms")
	if pf.Timeout != 250*time.Millisecond {
		t.Fatalf("Timeout = %v, want 250ms", pf.Timeout)
	}
	ctx, cancel := pf.Context()
	defer cancel()
	deadline, ok := ctx.Deadline()
	if !ok {
		t.Fatal("-timeout set, but context has no deadline")
	}
	if until := time.Until(deadline); until > 250*time.Millisecond {
		t.Errorf("deadline %v from now, want at most 250ms", until)
	}
	if err := ctx.Err(); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("unexpected context error %v", err)
	}
}
