// Package sim implements the paper's pipeline simulator (§III-B-1): given
// per-stage forward/backward times and a communication constant it computes
// the start time of every operation of a synchronous 1F1B pipeline
// iteration, the iteration time, the startup overhead, and reconstructs the
// unique critical path and master stage.
//
// The recurrences follow the paper exactly. For a non-first stage a forward
// start is max(upstream forward end, previous same-stage op end) + Comm; for
// a non-last stage a backward start is max(downstream backward end, previous
// same-stage op end) + Comm. They are evaluated once, over flat per-op
// arrays in a reusable Scratch (Scratch.Summarize, allocation-free once
// warmed); SimulateProfile materializes the op-level Result from the same
// arrays. The paper estimates the Warmup phase with the
// total forward time of one micro-batch because a balanced partition keeps
// the first micro-batch from choking; this implementation evaluates Warmup
// with the same recurrences, which coincides with the estimate whenever that
// assumption holds (a property the tests check).
package sim

import (
	"fmt"
	"math"
	"strings"

	"autopipe/internal/errdefs"
)

// StageProfile is the value type every timing-level entry point consumes: the
// per-stage forward and backward wall times of a partition, the cross-stage
// communication constant, and the micro-batch count of one iteration. It
// replaces the positional (f, b []float64, comm, micro) signature that used
// to be duplicated across Simulate, the Slicer, and the planner.
type StageProfile struct {
	// Fwd and Bwd are the per-stage forward/backward times in seconds (the
	// paper's f_x and b_x).
	Fwd []float64
	Bwd []float64
	// Comm is the activation hand-off time between adjacent stages.
	Comm float64
	// Micro is the number of micro-batches per iteration.
	Micro int
}

// Stages returns the pipeline depth of the profile.
func (p StageProfile) Stages() int { return len(p.Fwd) }

// Validate reports the first structural problem with the profile. Errors wrap
// errdefs.ErrBadConfig.
func (p StageProfile) Validate() error {
	n := len(p.Fwd)
	if n == 0 || len(p.Bwd) != n {
		return fmt.Errorf("%w: sim: need matching non-empty stage times, got %d fwd / %d bwd",
			errdefs.ErrBadConfig, n, len(p.Bwd))
	}
	if p.Micro <= 0 {
		return fmt.Errorf("%w: sim: micro-batch count must be positive, got %d", errdefs.ErrBadConfig, p.Micro)
	}
	for i := 0; i < n; i++ {
		if !finiteNonNeg(p.Fwd[i]) || !finiteNonNeg(p.Bwd[i]) {
			return fmt.Errorf("%w: sim: stage %d times must be finite and non-negative, got fwd %g bwd %g",
				errdefs.ErrBadConfig, i, p.Fwd[i], p.Bwd[i])
		}
	}
	if !finiteNonNeg(p.Comm) {
		return fmt.Errorf("%w: sim: communication constant must be finite and non-negative, got %g", errdefs.ErrBadConfig, p.Comm)
	}
	return nil
}

// finiteNonNeg reports whether v is a usable time: not negative, NaN, or
// infinite.
func finiteNonNeg(v float64) bool { return v >= 0 && !math.IsInf(v, 1) }

// Phase labels the pipeline phase an operation belongs to (paper Fig. 5).
type Phase int

const (
	Warmup Phase = iota
	OneFOneB
	Cooldown
)

var phaseNames = [...]string{"Warmup", "1F1B", "Cooldown"}

func (p Phase) String() string { return phaseNames[p] }

// OpKind distinguishes forward from backward operations.
type OpKind int

const (
	Fwd OpKind = iota
	Bwd
)

func (k OpKind) String() string {
	if k == Fwd {
		return "F"
	}
	return "B"
}

// Op is one simulated compute operation.
type Op struct {
	Stage int
	Micro int
	Kind  OpKind
	Phase Phase
	// Block is the renumbered block index within the 1F1B phase (paper
	// Fig. 6), or the reverse-renumbered index within Cooldown; -1 in Warmup.
	Block      int
	Start, End float64
}

// Result is the outcome of simulating one pipeline iteration.
type Result struct {
	// IterTime is the makespan of the iteration (Warmup + 1F1B + Cooldown),
	// the quantity the partitioner minimizes.
	IterTime float64
	// Startup is the pipeline startup overhead: the moment the last stage
	// has received the activations of the first micro-batch and can begin
	// computing (paper §II-B).
	Startup float64
	// Master is the master stage: the stage the critical path passes
	// through in the 1F1B phase (paper §III-B).
	Master int
	// Critical is the unique critical path from the first forward to the
	// end of the last backward, tie-broken toward the last pipeline stage.
	Critical []*Op
	// Ops holds every simulated op, per stage, in execution order.
	Ops [][]*Op

	F, B  []float64
	Comm  float64
	Micro int
}

// SimulateProfile runs one synchronous 1F1B iteration for the profile and
// materializes the full Result: every op, the critical path, and the summary.
// It evaluates the same flat recurrence as Scratch.Summarize; callers that
// only need the summary (the planner's search loop) should use a reusable
// Scratch instead.
func SimulateProfile(p StageProfile) (*Result, error) {
	var s Scratch
	sum, err := s.Summarize(p)
	if err != nil {
		return nil, err
	}
	return s.result(p, sum), nil
}

// Summary is the part of a simulation the planner's search decides on.
type Summary struct {
	// IterTime, Startup, and Master are as in Result.
	IterTime float64
	Startup  float64
	Master   int
}

// Scratch holds the flat 1F1B recurrence of one simulation: per op, its
// start and end time and which dependency determined the start. Ops are
// indexed by slot stage*2m+pos, where pos is the op's position in its
// stage's execution order (see opAt). A Scratch is reused across
// simulations so a warmed one computes a Summary without allocating; it is
// not safe for concurrent use. The zero value is ready to use.
type Scratch struct {
	n, m       int
	start, end []float64
	// crit encodes which dependency determined each op's start: -1 none, 0
	// the same-stage predecessor, 1 the cross-stage predecessor.
	crit []int8
	// path holds the critical path's slots, last op first.
	path  []int32
	dwell []float64
}

// Summarize runs the 1F1B recurrence for the profile and returns its
// iteration time, startup overhead, and master stage. Errors wrap
// errdefs.ErrBadConfig.
func (s *Scratch) Summarize(p StageProfile) (Summary, error) {
	if err := p.Validate(); err != nil {
		return Summary{}, err
	}
	n, m := len(p.Fwd), p.Micro
	s.reset(n, m)

	// Every cross-stage dependency points to an op at the same or an earlier
	// position of its own stage (a forward's upstream forward sits at or
	// before it, a backward's downstream backward likewise), and forwards
	// only depend on forwards, backwards on backwards. So sweeping positions
	// in order — forwards by ascending stage, then backwards by descending
	// stage — evaluates every op after all of its dependencies. The values
	// are the unique longest-path times, whatever the evaluation order.
	for pos := 0; pos < 2*m; pos++ {
		for x := 0; x < n; x++ {
			if k, µ := opAt(n, m, x, pos); k == Fwd {
				s.step(p, x, pos, k, µ)
			}
		}
		for x := n - 1; x >= 0; x-- {
			if k, µ := opAt(n, m, x, pos); k == Bwd {
				s.step(p, x, pos, k, µ)
			}
		}
	}

	// The iteration ends with stage 0's last backward; the last stage starts
	// computing with its first op.
	last := 2*m - 1
	sum := Summary{IterTime: s.end[last], Startup: s.start[(n-1)*2*m]}

	// Walk the critical path back from the final op.
	s.path = s.path[:0]
	for i := last; i >= 0; {
		s.path = append(s.path, int32(i))
		switch s.crit[i] {
		case 0:
			i--
		case 1:
			x, pos := i/(2*m), i%(2*m)
			k, µ := opAt(n, m, x, pos)
			if k == Fwd {
				i = s.slot(x-1, posFwd(n, m, x-1, µ))
			} else {
				i = s.slot(x+1, posBwd(n, m, x+1, µ))
			}
		default:
			i = -1
		}
	}

	// The master stage dominates the critical path in the 1F1B phase: the
	// stage with the heaviest load, which drives succeeding stages through
	// its forwards and preceding stages through its backwards. Dwell sums
	// in chronological order (the path is stored last op first).
	anySteady := false
	for j := len(s.path) - 1; j >= 0; j-- {
		i := int(s.path[j])
		x, pos := i/(2*m), i%(2*m)
		if phaseAt(n, m, x, pos) == OneFOneB {
			s.dwell[x] += s.end[i] - s.start[i]
			anySteady = true
		}
	}
	if !anySteady {
		// Degenerate pipelines (m < n) may have an empty 1F1B phase; fall
		// back to the heaviest critical-path stage overall.
		for j := len(s.path) - 1; j >= 0; j-- {
			i := int(s.path[j])
			s.dwell[i/(2*m)] += s.end[i] - s.start[i]
		}
	}
	bestT := math.Inf(-1)
	for x, t := range s.dwell {
		// Ties resolve toward the last stage, matching the critical-path
		// uniqueness rule.
		if t >= bestT {
			sum.Master, bestT = x, t
		}
	}
	return sum, nil
}

// reset sizes the arrays for an n-stage, m-micro-batch iteration, reusing
// their backing when it is large enough.
func (s *Scratch) reset(n, m int) {
	s.n, s.m = n, m
	ops := 2 * n * m
	if cap(s.start) < ops {
		s.start = make([]float64, ops)
		s.end = make([]float64, ops)
		s.crit = make([]int8, ops)
	}
	s.start, s.end, s.crit = s.start[:ops], s.end[:ops], s.crit[:ops]
	if cap(s.dwell) < n {
		s.dwell = make([]float64, n)
	}
	s.dwell = s.dwell[:n]
	clear(s.dwell)
}

func (s *Scratch) slot(x, pos int) int { return x*2*s.m + pos }

// step evaluates the op at position pos of stage x — kind k, micro-batch µ —
// from its already evaluated dependencies. For a non-first stage a forward
// starts at max(upstream forward end, previous same-stage op end) + Comm;
// for a non-last stage a backward starts at max(downstream backward end,
// previous same-stage op end) + Comm.
func (s *Scratch) step(p StageProfile, x, pos int, k OpKind, µ int) {
	n, m := s.n, s.m
	i := s.slot(x, pos)
	start, crit := 0.0, int8(-1)
	if pos > 0 {
		start, crit = s.end[i-1], 0
	}
	cross := -1
	if k == Fwd && x > 0 {
		cross = s.slot(x-1, posFwd(n, m, x-1, µ))
	} else if k == Bwd && x < n-1 {
		cross = s.slot(x+1, posBwd(n, m, x+1, µ))
	}
	if cross >= 0 {
		// Tie-break toward the path "closest to the last pipeline stage"
		// (paper Fig. 4): a backward's cross dependency comes from a higher
		// stage, so it wins ties; a forward's comes from a lower stage, so
		// the same-stage predecessor keeps ties.
		if e := s.end[cross]; e > start || (e == start && k == Bwd) {
			start, crit = e, 1
		}
		// The paper charges Comm on every cross-stage op regardless of
		// which dependency dominated (the receive occupies the stream).
		start += p.Comm
	}
	s.start[i], s.crit[i] = start, crit
	if k == Fwd {
		s.end[i] = start + p.Fwd[x]
	} else {
		s.end[i] = start + p.Bwd[x]
	}
}

// The 1F1B execution order (paper Fig. 5/6): stage x warms up with
// min(n-1-x, m) forwards, alternates forward/backward blocks in the 1F1B
// phase — block y pairs F(warm+y) with B(y) — and cools down with the
// remaining backwards. opAt, posFwd, posBwd, and phaseAt are the closed
// forms of that order.

func warmup(n, m, x int) int { return min(n-1-x, m) }

// opAt returns the kind and micro-batch of the op at position pos of stage
// x's execution order.
func opAt(n, m, x, pos int) (OpKind, int) {
	warm := warmup(n, m, x)
	switch {
	case pos < warm:
		return Fwd, pos
	case pos < 2*m-warm:
		j := pos - warm
		if j%2 == 1 {
			return Bwd, j / 2
		}
		return Fwd, warm + j/2
	default:
		return Bwd, pos - m
	}
}

// posFwd returns the position of stage x's forward of micro-batch µ.
func posFwd(n, m, x, µ int) int {
	if warm := warmup(n, m, x); µ >= warm {
		return 2*µ - warm
	}
	return µ
}

// posBwd returns the position of stage x's backward of micro-batch µ.
func posBwd(n, m, x, µ int) int {
	if warm := warmup(n, m, x); µ < m-warm {
		return warm + 2*µ + 1
	}
	return m + µ
}

// phaseAt returns the phase of the op at position pos of stage x.
func phaseAt(n, m, x, pos int) Phase {
	warm := warmup(n, m, x)
	switch {
	case pos < warm:
		return Warmup
	case pos < 2*m-warm:
		return OneFOneB
	default:
		return Cooldown
	}
}

// result materializes the full Result of the iteration s last summarized.
func (s *Scratch) result(p StageProfile, sum Summary) *Result {
	n, m := s.n, s.m
	r := &Result{
		IterTime: sum.IterTime, Startup: sum.Startup, Master: sum.Master,
		F: append([]float64(nil), p.Fwd...), B: append([]float64(nil), p.Bwd...), Comm: p.Comm, Micro: m,
	}
	ops := make([]Op, 2*n*m)
	r.Ops = make([][]*Op, n)
	for x := range r.Ops {
		r.Ops[x] = make([]*Op, 2*m)
		for pos := range r.Ops[x] {
			i := s.slot(x, pos)
			op := &ops[i]
			op.Stage, op.Start, op.End = x, s.start[i], s.end[i]
			op.Kind, op.Micro = opAt(n, m, x, pos)
			op.Phase = phaseAt(n, m, x, pos)
			switch op.Phase {
			case Warmup:
				op.Block = -1
			case OneFOneB:
				op.Block = (pos - warmup(n, m, x)) / 2
			case Cooldown:
				// Renumbered in reverse order (paper Fig. 6): the final
				// backward gets index 0.
				op.Block = m - 1 - op.Micro
			}
			r.Ops[x][pos] = op
		}
	}
	r.Critical = make([]*Op, len(s.path))
	for j, i := range s.path {
		r.Critical[len(s.path)-1-j] = &ops[i]
	}
	return r
}

// PhaseWindows returns, per stage, the wall-clock boundaries
// [warmup-end, steady-end] of the analytic timeline: the start of the
// stage's first 1F1B-phase op and the end of its last. A stage with an empty
// 1F1B phase (m < n) collapses the steady window at the start of its first
// Cooldown op. The executor consumes these windows
// (exec.Result.MetricsWithWindows) to attribute measured bubbles on the same
// phase boundaries the planner reasoned about — the analytic counterpart of
// the paper's Fig. 5 phase split.
func (r *Result) PhaseWindows() [][2]float64 {
	out := make([][2]float64, len(r.Ops))
	for x, ops := range r.Ops {
		t1, t2 := r.IterTime, r.IterTime
		var firstSteady, lastSteady, firstCool *Op
		for _, op := range ops {
			switch op.Phase {
			case OneFOneB:
				if firstSteady == nil {
					firstSteady = op
				}
				lastSteady = op
			case Cooldown:
				if firstCool == nil {
					firstCool = op
				}
			}
		}
		switch {
		case firstSteady != nil:
			t1, t2 = firstSteady.Start, lastSteady.End
		case firstCool != nil:
			t1, t2 = firstCool.Start, firstCool.Start
		}
		out[x] = [2]float64{t1, t2}
	}
	return out
}

// Bubble returns the total idle time across stages within the iteration
// (makespan*stages minus busy time), a convenience metric for tests and
// ablations.
func (r *Result) Bubble() float64 {
	var busy float64
	for _, ops := range r.Ops {
		for _, op := range ops {
			busy += op.End - op.Start
		}
	}
	return r.IterTime*float64(len(r.Ops)) - busy
}

// Timeline renders a compact text view of the iteration for debugging.
func (r *Result) Timeline() string {
	var sb strings.Builder
	for x, ops := range r.Ops {
		fmt.Fprintf(&sb, "stage %d:", x)
		for _, op := range ops {
			fmt.Fprintf(&sb, " %s%d@%.2f", op.Kind, op.Micro, op.Start*1e3)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
