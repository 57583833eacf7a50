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
// arrays. Summarize never decodes an op: each stage's order is
// phase-structured by its warmup count, so every op's kind, phase and
// cross-stage dependency follow from its position by comparisons alone, and
// the dependency that determined its start is recorded as a fixed slot
// offset (the crit codes). The paper estimates the Warmup phase with the
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

// maxOps caps a profile's operation count 2·n·m, the size of the arrays a
// simulation allocates (about 17 bytes per op in a Scratch, 64 more per op
// when SimulateProfile materializes the Result). It admits 16 stages at the
// run's micro-batch cap (config.Run.Validate, 65536) and is 256 times the
// largest profile the repository plans (16 stages, 256 micro-batches), but
// stops an untrusted profile from indexing out of range or allocating
// gigabytes.
const maxOps = 1 << 21

// Validate reports the first structural problem with the profile: stage time
// slices that are empty or of different lengths, a non-positive micro-batch
// count, more than maxOps operations, or a negative or non-finite time.
// Errors wrap errdefs.ErrBadConfig.
func (p StageProfile) Validate() error {
	n := len(p.Fwd)
	if n == 0 || len(p.Bwd) != n {
		return fmt.Errorf("%w: sim: need matching non-empty stage times, got %d fwd / %d bwd",
			errdefs.ErrBadConfig, n, len(p.Bwd))
	}
	if p.Micro <= 0 {
		return fmt.Errorf("%w: sim: micro-batch count must be positive, got %d", errdefs.ErrBadConfig, p.Micro)
	}
	// Compared by division: 2·n·m itself can overflow.
	if p.Micro > maxOps/(2*n) {
		return fmt.Errorf("%w: sim: %d stages with %d micro-batches exceed the cap of %d operations (2 per stage and micro-batch)",
			errdefs.ErrBadConfig, n, p.Micro, maxOps)
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
	// crit encodes which dependency determined each op's start as the
	// dependency's fixed offset from the op (see the crit* codes), so the
	// critical-path walk is a switch over constant slot deltas.
	crit []int8
	// path holds the critical path's slots, last op first.
	path  []int32
	dwell []float64
}

// The crit codes. Stage x's execution order is phase-structured by its
// warmup count w = min(n-1-x, m): forwards at positions [0, w), alternating
// F/B at [w, 2m-w), backwards after. Adjacent stages' warmup counts differ
// by one (or are both m), so an op's cross-stage dependency sits at a fixed
// (stage, position) offset from the op itself:
//
//	warmup forward, first 1F1B forward   (x-1, pos)    critUp
//	later 1F1B forward                   (x-1, pos-1)  critUpPrev
//	1F1B backward                        (x+1, pos-1)  critDownPrev
//	cooldown backward                    (x+1, pos)    critDown
//
// The same-stage predecessor is (x, pos-1), critSame. critNone marks a
// stage's first forward when no dependency binds it: always on stage 0, and
// on a later stage when its upstream forward ends at time 0 (the forward tie
// rule keeps the absent same-stage predecessor).
const (
	critNone int8 = iota
	critSame
	critUp
	critUpPrev
	critDownPrev
	critDown
)

// Summarize runs the 1F1B recurrence for the profile and returns its
// iteration time, startup overhead, and master stage. Errors wrap
// errdefs.ErrBadConfig.
func (s *Scratch) Summarize(p StageProfile) (Summary, error) {
	if err := p.Validate(); err != nil {
		return Summary{}, err
	}
	n, m := len(p.Fwd), p.Micro
	s.reset(n, m)
	fwd, bwd, comm := p.Fwd, p.Bwd, p.Comm
	start, end, crit := s.start, s.end, s.crit
	row := 2 * m

	// Every cross-stage dependency points to an op at the same or an earlier
	// position of its own stage (a forward's upstream forward sits at or
	// before it, a backward's downstream backward likewise), and forwards
	// only depend on forwards, backwards on backwards. So sweeping positions
	// in order — forwards by ascending stage, then backwards by descending
	// stage — evaluates every op after all of its dependencies. The values
	// are the unique longest-path times, whatever the evaluation order.
	//
	// For a non-first stage a forward starts at max(upstream forward end,
	// previous same-stage op end) + Comm; for a non-last stage a backward
	// starts at max(downstream backward end, previous same-stage op end) +
	// Comm. Ties break toward the path "closest to the last pipeline stage"
	// (paper Fig. 4): a backward's cross dependency comes from a higher
	// stage, so it wins ties (>=); a forward's comes from a lower stage, so
	// the same-stage predecessor keeps them (>). The paper charges Comm on
	// every cross-stage op regardless of which dependency dominated (the
	// receive occupies the stream).
	for pos := 0; pos < row; pos++ {
		for x, i := 0, pos; x < n; x, i = x+1, i+row {
			w := min(n-1-x, m) // stage x's warmup count
			if pos >= w && (pos >= row-w || (pos-w)&1 == 1) {
				continue // a backward
			}
			t, c := 0.0, critNone
			if pos > 0 {
				t, c = end[i-1], critSame
			}
			if x > 0 {
				// A warmup or first 1F1B forward reads (x-1, pos); a later
				// 1F1B forward reads (x-1, pos-1).
				j, cc := i-row, critUp
				if pos > w {
					j, cc = j-1, critUpPrev
				}
				if e := end[j]; e > t {
					t, c = e, cc
				}
				t += comm
			}
			start[i], crit[i], end[i] = t, c, t+fwd[x]
		}
		for x, i := n-1, (n-1)*row+pos; x >= 0; x, i = x-1, i-row {
			w := min(n-1-x, m)
			if pos < w || (pos < row-w && (pos-w)&1 == 0) {
				continue // a forward
			}
			// Position 0 always holds a forward, so a backward always has
			// a same-stage predecessor.
			t, c := end[i-1], critSame
			if x < n-1 {
				// A 1F1B backward reads (x+1, pos-1); a cooldown backward
				// reads (x+1, pos).
				j, cc := i+row, critDown
				if pos < row-w {
					j, cc = j-1, critDownPrev
				}
				if e := end[j]; e >= t {
					t, c = e, cc
				}
				t += comm
			}
			start[i], crit[i], end[i] = t, c, t+bwd[x]
		}
	}

	// The iteration ends with stage 0's last backward; the last stage starts
	// computing with its first op.
	last := row - 1
	sum := Summary{IterTime: end[last], Startup: start[(n-1)*row]}

	// Walk the critical path back from the final op to a critNone op, the
	// first forward of some stage.
	s.path = s.path[:0]
walk:
	for i := last; ; {
		s.path = append(s.path, int32(i))
		switch crit[i] {
		case critSame:
			i--
		case critUp:
			i -= row
		case critUpPrev:
			i -= row + 1
		case critDownPrev:
			i += row - 1
		case critDown:
			i += row
		default:
			break walk
		}
	}

	// The master stage dominates the critical path in the 1F1B phase: the
	// stage with the heaviest load, which drives succeeding stages through
	// its forwards and preceding stages through its backwards. Dwell sums
	// in chronological order (the path is stored last op first), tracking
	// each op's stage and position from the path's first op, a forward at
	// position 0, through the crit codes of the ops after it.
	//
	// Every critical path has a 1F1B op, even when m < n leaves some
	// stages without a 1F1B phase. The path must step from a backward to
	// its same-stage forward predecessor somewhere. Outside a 1F1B phase
	// that backward can only be B0 of a stage x with no 1F1B phase (w = m),
	// whose predecessor is F(m-1); but its downstream dependency B0 on
	// stage x+1 runs after F(m-1) there, so it ends no earlier than F(m-1)
	// on stage x and wins the backward tie rule. The descent ends at a
	// stage with a 1F1B phase at the latest on the last stage (w = 0).
	first := len(s.path) - 1
	x, pos := int(s.path[first])/row, 0
	for j := first; j >= 0; j-- {
		i := s.path[j]
		switch crit[i] {
		case critSame:
			pos++
		case critUp:
			x++
		case critUpPrev:
			x, pos = x+1, pos+1
		case critDownPrev:
			x, pos = x-1, pos+1
		case critDown:
			x--
		}
		if w := min(n-1-x, m); pos >= w && pos < row-w {
			s.dwell[x] += end[i] - start[i]
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

// The 1F1B execution order (paper Fig. 5/6): stage x warms up with
// min(n-1-x, m) forwards, alternates forward/backward blocks in the 1F1B
// phase — block y pairs F(warm+y) with B(y) — and cools down with the
// remaining backwards. opAt and phaseAt are the closed forms of that order;
// Summarize walks the same order phase by phase (see the crit codes), and
// result uses them to label each op.

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
