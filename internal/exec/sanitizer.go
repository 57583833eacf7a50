package exec

import (
	"fmt"
	"math"
	"strings"

	"autopipe/internal/config"
	"autopipe/internal/errdefs"
	"autopipe/internal/schedule"
	"autopipe/internal/sim"
)

// Sanitizer is the dynamic half of the schedule-correctness tier: a
// happens-before checker threaded through the discrete-event loop. The static
// half (schedule.CheckDeadlock, run by the root fixture test over every
// checked-in golden) topologically sorts the schedule dependency model; the
// Sanitizer replays the *executed* trace against the very same
// schedule.DepGraph edges, op by op, as Run records them:
//
//   - no op starts before every schedule dependency has completed;
//   - each device's ops run in issue order on a monotone simulated clock;
//   - link transfers respect per-direction (full-duplex) serialization and
//     the latency lower bound and the bandwidth capacity floor;
//   - the activation-stash ledger never goes negative and sums to zero at
//     iteration end.
//
// Any violation is an executor invariant bug, not a user error, so it
// surfaces as an error wrapping errdefs.ErrInternal naming the offending op
// and its dependency chain. Enable it with Config.Sanitize (pipesim's
// -sanitize flag); the package's tests force it on for every execution.
type Sanitizer struct {
	s    *schedule.Schedule
	deps *schedule.DepGraph

	net      config.Network
	overhead float64
	fwd, bwd []float64

	seen     []bool
	doneAt   []sim.Time
	nextIdx  []int
	lastEnd  []sim.Time
	linkFree map[[2]int]sim.Time
	// credit is the per-virtual-stage activation-stash balance in micro-batch
	// units: a forward deposits its stash (half ops deposit half), a backward
	// consumes one full micro-batch stash.
	credit   []float64
	executed int
}

// testSanitize force-enables the sanitizer for every Run in this process. The
// exec test binary's TestMain sets it, so every executor test runs fully
// checked; other packages' tests ask for the check through Config.Sanitize.
var testSanitize bool

// newSanitizer builds the checker for one execution. Building the dependency
// graph can fail with errdefs.ErrBadConfig on a structurally broken schedule
// (the same defects CheckDeadlock rejects).
func newSanitizer(s *schedule.Schedule, cfg Config) (*Sanitizer, error) {
	g, err := s.Dependencies()
	if err != nil {
		return nil, err
	}
	return &Sanitizer{
		s:        s,
		deps:     g,
		net:      cfg.Network,
		overhead: cfg.KernelOverhead,
		fwd:      cfg.VirtFwd,
		bwd:      cfg.VirtBwd,
		seen:     make([]bool, g.NumOps()),
		doneAt:   make([]sim.Time, g.NumOps()),
		nextIdx:  make([]int, s.Devices),
		lastEnd:  make([]sim.Time, s.Devices),
		linkFree: map[[2]int]sim.Time{},
		credit:   make([]float64, s.VirtStages),
	}, nil
}

// timeLess reports a < b beyond floating-point tolerance (absolute plus
// relative, so second-scale and nanosecond-scale clocks both compare sanely).
func timeLess(a, b sim.Time) bool {
	const eps = 1e-9
	return a.Seconds() < b.Seconds()-eps*(1+math.Abs(b.Seconds()))
}

func (z *Sanitizer) violation(format string, args ...any) error {
	return fmt.Errorf("%w: sanitizer: "+format, append([]any{errdefs.ErrInternal}, args...)...)
}

// opName renders one op with its device for violation messages.
func (z *Sanitizer) opName(id int) string {
	r := z.deps.Ref(id)
	return fmt.Sprintf("%v(dev %d)", z.deps.Op(id), r.Device)
}

// chain renders the op's executed dependency chain — each hop the
// latest-finishing predecessor — the context a happens-before violation is
// debugged with.
func (z *Sanitizer) chain(id int) string {
	parts := []string{z.opName(id)}
	for hop := 0; hop < 4; hop++ {
		best := -1
		for _, p := range z.deps.Preds(id) {
			if z.seen[p] && (best < 0 || z.doneAt[p] > z.doneAt[best]) {
				best = p
			}
		}
		if best < 0 {
			break
		}
		parts = append(parts, z.opName(best))
		id = best
	}
	return strings.Join(parts, " <- ")
}

// checkOp validates one recorded op against the dependency model and advances
// the checker state. Run calls it immediately after appending the trace.
func (z *Sanitizer) checkOp(tr OpTrace) error {
	d := tr.Device
	if d < 0 || d >= len(z.nextIdx) {
		return z.violation("trace names device %d, schedule has %d", d, len(z.nextIdx))
	}
	i := z.nextIdx[d]
	if i >= len(z.s.Ops[d]) {
		return z.violation("device %d executed %v beyond its %d-op issue order", d, tr.Op, len(z.s.Ops[d]))
	}
	if z.s.Ops[d][i] != tr.Op {
		return z.violation("device %d op %d: executed %v, schedule issues %v", d, i, tr.Op, z.s.Ops[d][i])
	}
	id := z.deps.ID(schedule.OpRef{Device: d, Index: i})
	start, end := sim.Time(tr.Start), sim.Time(tr.End)

	if math.IsNaN(tr.Start) || math.IsNaN(tr.End) || timeLess(start, 0) {
		return z.violation("%s carries a NaN or negative time [%g, %g]", z.opName(id), tr.Start, tr.End)
	}
	if timeLess(end, start) {
		return z.violation("clock ran backwards: %s ends at %g before its start %g", z.opName(id), tr.End, tr.Start)
	}
	if timeLess(start, z.lastEnd[d]+sim.Time(z.overhead)) {
		return z.violation("device %d clock not monotone: %s starts at %g before the previous op's end %g (+%g overhead)",
			d, z.opName(id), tr.Start, z.lastEnd[d].Seconds(), z.overhead)
	}
	for _, p := range z.deps.Preds(id) {
		if !z.seen[p] {
			return z.violation("%s started before dependency %s executed at all; chain %s",
				z.opName(id), z.opName(p), z.chain(id))
		}
		if timeLess(start, z.doneAt[p]) {
			return z.violation("%s starts at %g before dependency %s completes at %g; chain %s",
				z.opName(id), tr.Start, z.opName(p), z.doneAt[p].Seconds(), z.chain(id))
		}
	}
	if tr.InputArrive >= 0 {
		if timeLess(sim.Time(tr.InputArrive), sim.Time(tr.InputReady)) {
			return z.violation("%s input arrived at %g before it was ready at %g", z.opName(id), tr.InputArrive, tr.InputReady)
		}
		if timeLess(start, sim.Time(tr.InputArrive)+sim.Time(z.overhead)) {
			return z.violation("%s starts at %g before its input arrives at %g", z.opName(id), tr.Start, tr.InputArrive)
		}
	}
	base := z.fwd[tr.Op.Virt]
	if tr.Op.Kind == schedule.Bwd {
		base = z.bwd[tr.Op.Virt]
	}
	if tr.Op.Half >= 0 {
		base /= 2
	}
	if timeLess(end-start, sim.Time(base)) {
		return z.violation("%s ran for %g s, below its %g s compute floor", z.opName(id), tr.End-tr.Start, base)
	}
	v := tr.Op.Virt
	if tr.Op.Kind == schedule.Fwd {
		if tr.Op.Half >= 0 {
			z.credit[v] += 0.5
		} else {
			z.credit[v]++
		}
	} else {
		z.credit[v]--
		if z.credit[v] < -1e-6 {
			return z.violation("memory ledger went negative: %s releases a stash virtual stage %d never deposited (balance %+g)",
				z.opName(id), v, z.credit[v])
		}
	}

	z.seen[id] = true
	z.doneAt[id] = end
	z.lastEnd[d] = end
	z.nextIdx[d] = i + 1
	z.executed++
	return nil
}

// msgName renders a transfer's identity for violation messages. It is called
// only on violation paths, so the clean-trace fast path (every message of
// every sanitized execution) formats nothing.
func msgName(m MsgTrace) string {
	return fmt.Sprintf("%v message virt %d micro %d half %d (%d->%d)", m.Kind, m.Virt, m.Micro, m.Half, m.From, m.To)
}

// checkMsg validates one recorded transfer: payload readiness, per-direction
// (full-duplex) link serialization, the latency floor, and the bandwidth
// capacity floor.
func (z *Sanitizer) checkMsg(m MsgTrace) error {
	ready, start, free, arrive := sim.Time(m.Ready), sim.Time(m.Start), sim.Time(m.Free), sim.Time(m.Arrive)
	if timeLess(arrive, ready) {
		return z.violation("%s arrives at %g before its payload is ready at %g", msgName(m), m.Arrive, m.Ready)
	}
	if m.From == m.To {
		return nil // same-device hop occupies no link
	}
	if timeLess(start, ready) {
		return z.violation("%s entered the link at %g before its payload was ready at %g", msgName(m), m.Start, m.Ready)
	}
	key := [2]int{m.From, m.To}
	if timeLess(start, z.linkFree[key]) {
		return z.violation("link %d->%d overlap: %s starts at %g while the link serializes until %g",
			m.From, m.To, msgName(m), m.Start, z.linkFree[key].Seconds())
	}
	if timeLess(arrive-free, sim.Time(z.net.Latency)) {
		return z.violation("%s beat the %g s latency floor (free %g, arrive %g)", msgName(m), z.net.Latency, m.Free, m.Arrive)
	}
	floor := sim.Time(float64(sim.Bytes(m.Bytes).Int64()) / z.net.Bandwidth)
	if timeLess(free-start, floor) {
		return z.violation("%s serialized %d bytes in %g s, below the %g s capacity floor",
			msgName(m), m.Bytes, m.Free-m.Start, floor.Seconds())
	}
	if z.linkFree[key] < free {
		z.linkFree[key] = free
	}
	return nil
}

// finish validates end-of-iteration invariants: every scheduled op executed
// and every virtual stage's activation-stash ledger balances to zero.
func (z *Sanitizer) finish() error {
	if z.executed != z.deps.NumOps() {
		for id := 0; id < z.deps.NumOps(); id++ {
			if !z.seen[id] {
				return z.violation("%d of %d ops never executed, first missing %s",
					z.deps.NumOps()-z.executed, z.deps.NumOps(), z.opName(id))
			}
		}
	}
	for v, c := range z.credit {
		if math.Abs(c) > 1e-6 {
			return z.violation("memory ledger for virtual stage %d ends at %+g micro-batch stashes, want 0", v, c)
		}
	}
	return nil
}
