// Package errdefs defines the typed sentinel errors of the public AutoPipe
// API. They live in their own leaf package (importing nothing) so that every
// layer — config validation, the planner engine, the plan evaluator — can
// wrap them without import cycles, and the root package re-exports them as
// autopipe.ErrInfeasible, autopipe.ErrOOM, and autopipe.ErrBadConfig.
//
// All errors returned by the Plan/Evaluate paths wrap one of these sentinels
// (or a context error), so callers dispatch with errors.Is instead of
// matching message strings:
//
//	if errors.Is(err, errdefs.ErrInfeasible) { ... no plan fits memory ... }
package errdefs

import "errors"

var (
	// ErrInfeasible reports that no memory-feasible pipeline plan exists for
	// the requested model, cluster, and run configuration.
	ErrInfeasible = errors.New("infeasible configuration")

	// ErrOOM reports that a concrete plan exceeds device memory when
	// evaluated (the paper's Table III/IV "OOM" markers).
	ErrOOM = errors.New("out of device memory")

	// ErrBadConfig reports a structurally invalid input: a non-positive
	// micro-batch, a global batch the micro-batch does not divide, mismatched
	// stage-time vectors, and so on. It is always detected up front, before
	// any search work starts.
	ErrBadConfig = errors.New("bad configuration")

	// ErrDeadlock reports a schedule whose stages wait on each other forever:
	// the discrete-event executor made a full pass over every device without
	// issuing a single operation while work remained.
	ErrDeadlock = errors.New("schedule deadlock")

	// ErrInternal reports a violated internal invariant: a replayed trace
	// that leaks activation memory, an out-of-order pipeline message, a
	// stage that finished without producing its loss. It always indicates a
	// bug in this repository (or a hand-edited artifact), never bad user
	// input, so callers should surface it rather than retry or re-plan.
	ErrInternal = errors.New("internal invariant violated")
)
