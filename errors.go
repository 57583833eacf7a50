package autopipe

import "autopipe/internal/errdefs"

// Sentinel errors returned (wrapped) by the planning and evaluation APIs.
// Match them with errors.Is:
//
//	if _, _, err := planner.Plan(ctx, model, run, cluster); errors.Is(err, autopipe.ErrInfeasible) {
//	    // no partition of this model fits device memory at this micro-batch
//	}
var (
	// ErrBadConfig marks a structurally invalid model, run, or cluster
	// configuration — non-positive micro-batch, a global batch the
	// micro-batch does not divide, heads not dividing hidden, and so on.
	ErrBadConfig = errdefs.ErrBadConfig
	// ErrInfeasible marks a planning problem with no feasible answer: no
	// pipeline depth yields a partition that fits device memory.
	ErrInfeasible = errdefs.ErrInfeasible
	// ErrOOM marks an evaluated plan that exceeded device memory on the
	// discrete-event executor (EvalResult.Failure wraps it).
	ErrOOM = errdefs.ErrOOM
	// ErrDeadlock marks a structurally corrupted schedule whose stages wait
	// on each other forever on the discrete-event executor.
	ErrDeadlock = errdefs.ErrDeadlock
	// ErrInternal marks a violated internal invariant — most prominently a
	// runtime-sanitizer finding (an op that started before its schedule
	// dependencies completed, an oversubscribed link, a negative activation
	// ledger). Never retried: it is a bug, not bad input.
	ErrInternal = errdefs.ErrInternal
)
