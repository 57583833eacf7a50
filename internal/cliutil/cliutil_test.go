package cliutil

import (
	"context"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"autopipe/internal/errdefs"
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

func parseFaults(t *testing.T, args ...string) *FaultFlags {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	ff := RegisterFaults(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %v: %v", args, err)
	}
	return ff
}

func TestFaultsEmptyMeansNone(t *testing.T) {
	ff := parseFaults(t)
	plan, err := ff.Load()
	if plan != nil || err != nil {
		t.Fatalf("Load() = %v, %v; want nil, nil when -faults is unset", plan, err)
	}
}

func TestFaultsMissingFile(t *testing.T) {
	ff := parseFaults(t, "-faults", filepath.Join(t.TempDir(), "no_such_plan.json"))
	if _, err := ff.Load(); err == nil {
		t.Fatal("Load() succeeded on a nonexistent fault plan")
	}
}

func TestFaultsMalformedFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(path, []byte(`{"faults": [{"kind": "meteor-strike"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	ff := parseFaults(t, "-faults", path)
	_, err := ff.Load()
	if err == nil {
		t.Fatal("Load() accepted an unknown fault kind")
	}
	if !errors.Is(err, errdefs.ErrBadConfig) {
		t.Errorf("Load() error %v does not wrap errdefs.ErrBadConfig", err)
	}
}

func TestFaultsValidFile(t *testing.T) {
	ff := parseFaults(t, "-faults", "../../testdata/faults_basic.json")
	plan, err := ff.Load()
	if err != nil {
		t.Fatalf("Load() failed on the checked-in basic plan: %v", err)
	}
	if plan == nil || len(plan.Faults) == 0 {
		t.Fatal("Load() returned an empty plan for the checked-in basic plan")
	}
}
