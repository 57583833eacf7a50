package exec

import (
	"fmt"
	"math"

	"autopipe/internal/errdefs"
	"autopipe/internal/fault"
	"autopipe/internal/obs"
	"autopipe/internal/schedule"
)

// Runner executes schedules with its working state — dependency graph,
// sanitizer, arrival maps, trace backing — retained across calls, so a
// driver that re-executes the same schedule many times (the self-healing
// training loop, the fault-injection soak) pays the setup allocations once
// and runs the steady-state event loop allocation-free, sanitizer included.
// The package-level Run is NewRunner().Run and keeps the one-shot contract.
//
// The contract the reuse rests on:
//
//   - the returned Result (and everything reachable from it) is valid only
//     until the next Run call on the same Runner, which overwrites it;
//   - the schedule must not be mutated between runs — the per-schedule
//     caches (validation, dependency graph) key on its identity;
//   - a Runner is not safe for concurrent use. Use one Runner per goroutine.
type Runner struct {
	// Per-schedule caches, keyed on pointer identity.
	validFor *schedule.Schedule
	san      *Sanitizer
	sanFor   *schedule.Schedule

	// Scratch state reused across runs.
	arrived     map[msgKey]arrivalInfo
	pendingHalf map[msgKey]float64
	linkFree    map[[2]int]float64
	devFree     []float64
	next        []int
	res         Result

	// Per-run context threaded to the helper methods (set by Run).
	s       *schedule.Schedule
	cfg     Config
	liveSan *Sanitizer // nil when this run is not sanitized
}

// NewRunner returns a Runner with empty caches. The zero value is also ready
// to use.
func NewRunner() *Runner { return &Runner{} }

// phys maps a schedule device index to the physical device id fault plans
// reference.
func (r *Runner) phys(d int) int {
	if r.cfg.DeviceMap != nil {
		return r.cfg.DeviceMap[d]
	}
	return d
}

// reset prepares the scratch state for one execution of s, reusing every
// map and slice backing from previous runs.
func (r *Runner) reset(s *schedule.Schedule) {
	if r.arrived == nil {
		r.arrived = map[msgKey]arrivalInfo{}
		r.pendingHalf = map[msgKey]float64{}
		r.linkFree = map[[2]int]float64{}
	} else {
		clear(r.arrived)
		clear(r.pendingHalf)
		clear(r.linkFree)
	}
	if len(r.devFree) == s.Devices {
		clear(r.devFree)
		clear(r.next)
	} else {
		r.devFree = make([]float64, s.Devices)
		r.next = make([]int, s.Devices)
	}
	res := &r.res
	res.IterTime = 0
	res.Startup = math.NaN()
	if len(res.Traces) == s.Devices {
		for d := range res.Traces {
			res.Traces[d] = res.Traces[d][:0]
		}
		clear(res.Busy)
	} else {
		res.Traces = make([][]OpTrace, s.Devices)
		res.Busy = make([]float64, s.Devices)
	}
	res.Msgs = res.Msgs[:0]
}

// Run executes s under cfg. See the Runner doc comment for the lifetime of
// the returned Result.
func (r *Runner) Run(s *schedule.Schedule, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if r.validFor != s {
		if err := s.Validate(); err != nil {
			return nil, err
		}
		r.validFor = s
	}
	if len(cfg.VirtFwd) != s.VirtStages || len(cfg.VirtBwd) != s.VirtStages {
		return nil, fmt.Errorf("%w: exec: schedule has %d virtual stages, config has %d fwd / %d bwd times",
			errdefs.ErrBadConfig, s.VirtStages, len(cfg.VirtFwd), len(cfg.VirtBwd))
	}
	if cfg.DeviceMap != nil && len(cfg.DeviceMap) != s.Devices {
		return nil, fmt.Errorf("%w: exec: device map has %d entries, schedule has %d devices",
			errdefs.ErrBadConfig, len(cfg.DeviceMap), s.Devices)
	}
	r.s, r.cfg = s, cfg
	r.liveSan = nil
	if cfg.Sanitize || testSanitize {
		if r.san != nil && r.sanFor == s {
			r.san.reset(cfg)
		} else {
			san, err := newSanitizer(s, cfg)
			if err != nil {
				return nil, err
			}
			r.san, r.sanFor = san, s
		}
		r.liveSan = r.san
	}
	var sw obs.Stopwatch
	if cfg.Obs != nil {
		sw = obs.NewStopwatch()
	}
	r.reset(s)
	res := &r.res

	rng := jitterStream{state: cfg.Seed*2862933555777941757 + 3037000493}
	remaining := 0
	for _, ops := range s.Ops {
		remaining += len(ops)
	}

	for remaining > 0 {
		progressed := false
		for d := 0; d < s.Devices; d++ {
			for r.next[d] < len(s.Ops[d]) {
				op := s.Ops[d][r.next[d]]
				ready, input, hasInput := inputsReady(op, s, r.arrived)
				if !ready {
					break
				}
				start := r.devFree[d]
				if hasInput && input.arrival > start {
					start = input.arrival
				}
				start += cfg.KernelOverhead
				dur := opDuration(op, cfg, &rng)
				if cfg.Faults != nil {
					pd, abs := r.phys(d), cfg.Start+start
					if since, dead := cfg.Faults.Crashed(pd, abs); dead {
						observeRun(cfg.Obs, sw)
						return nil, &fault.DeviceLostError{Device: pd, At: since}
					}
					if cfg.Faults.OOMAt(pd, abs) {
						observeRun(cfg.Obs, sw)
						return nil, &fault.OOMError{Device: pd, At: abs}
					}
					dur *= cfg.Faults.ComputeScale(pd, abs)
				}
				end := start + dur
				r.devFree[d] = end
				res.Busy[d] += dur
				tr := OpTrace{Op: op, Device: d, Start: start, End: end, InputReady: -1, InputArrive: -1}
				if hasInput {
					tr.InputReady, tr.InputArrive = input.ready, input.arrival
				}
				res.Traces[d] = append(res.Traces[d], tr)
				if r.liveSan != nil {
					if err := r.liveSan.checkOp(tr); err != nil {
						observeRun(cfg.Obs, sw)
						return nil, err
					}
				}
				if d == s.Devices-1 && math.IsNaN(res.Startup) {
					res.Startup = start - cfg.KernelOverhead
				}
				if err := r.deliver(op, end); err != nil {
					observeRun(cfg.Obs, sw)
					return nil, err
				}
				r.next[d]++
				remaining--
				progressed = true
			}
		}
		if !progressed {
			observeRun(cfg.Obs, sw)
			return nil, fmt.Errorf("%w: exec: schedule %s deadlocked with %d ops remaining",
				errdefs.ErrDeadlock, s.Name, remaining)
		}
	}

	if r.liveSan != nil {
		if err := r.liveSan.finish(); err != nil {
			observeRun(cfg.Obs, sw)
			return nil, err
		}
	}
	for _, traces := range res.Traces {
		for _, tr := range traces {
			if tr.End > res.IterTime {
				res.IterTime = tr.End
			}
		}
	}
	if math.IsNaN(res.Startup) {
		res.Startup = 0
	}
	if cfg.Obs != nil {
		ops := 0
		for _, traces := range res.Traces {
			ops += len(traces)
		}
		var bytes int64
		links := 0
		for _, m := range res.Msgs {
			if m.From != m.To {
				bytes += m.Bytes
				links++
			}
		}
		cfg.Obs.Counter("exec.ops").Add(float64(ops))
		cfg.Obs.Counter("exec.messages").Add(float64(links))
		cfg.Obs.Counter("exec.bytes").Add(float64(bytes))
		cfg.Obs.Gauge("exec.iter_time_s").Set(res.IterTime)
		cfg.Obs.Gauge("exec.startup_s").Set(res.Startup)
		observeRun(cfg.Obs, sw)
	}
	return res, nil
}

// transfer moves one cross-stage payload across its link, modeling queueing,
// serialization, latency, and the active fault plan, and records the trace.
func (r *Runner) transfer(m MsgTrace) (float64, error) {
	cfg := &r.cfg
	if m.From == m.To {
		m.Start, m.Free, m.Arrive = m.Ready, m.Ready, m.Ready
		r.res.Msgs = append(r.res.Msgs, m)
		if r.liveSan != nil {
			if err := r.liveSan.checkMsg(m); err != nil {
				return 0, err
			}
		}
		return m.Ready, nil
	}
	key := [2]int{m.From, m.To}
	m.Start = m.Ready
	if r.linkFree[key] > m.Start {
		m.Start = r.linkFree[key]
	}
	bw := cfg.Network.Bandwidth
	if cfg.Faults != nil {
		pf, pt := r.phys(m.From), r.phys(m.To)
		abs := cfg.Start + m.Start
		// A flapped link defers the message to the end of the flap; a
		// permanent flap (no recovery window) is a dead link.
		if until, blocked, permanent := cfg.Faults.LinkBlocked(pf, pt, abs); blocked {
			if permanent {
				return 0, &fault.LinkDownError{From: pf, To: pt, At: abs}
			}
			m.Start = until - cfg.Start
			abs = until
		}
		// A dropped send surfaces as a retryable transient failure; the
		// injector consumes the fault, so a re-executed iteration passes
		// once the drop budget is spent.
		if cfg.Faults.DropAttempt(pf, pt, abs, msgID(m)) {
			return 0, &fault.TransientError{From: pf, To: pt, At: abs}
		}
		bw *= cfg.Faults.LinkFactor(pf, pt, abs)
	}
	m.Arrive = m.Start + cfg.Network.Latency + float64(m.Bytes)/bw
	m.Free = m.Arrive - cfg.Network.Latency
	r.linkFree[key] = m.Free
	r.res.Msgs = append(r.res.Msgs, m)
	if r.liveSan != nil {
		if err := r.liveSan.checkMsg(m); err != nil {
			return 0, err
		}
	}
	return m.Arrive, nil
}

// deliver schedules op's output transfer (if any) and deposits the arrival
// times consumers wait on. A fault on the transfer (dropped message, dead
// link) propagates as a typed error.
func (r *Runner) deliver(op schedule.Op, end float64) error {
	s, cfg := r.s, &r.cfg
	var destVirt int
	switch {
	case op.Kind == schedule.Fwd && op.Virt < s.VirtStages-1:
		destVirt = op.Virt + 1
	case op.Kind == schedule.Bwd && op.Virt > 0:
		destVirt = op.Virt - 1
	default:
		return nil
	}
	from := s.DeviceOf[op.Virt]
	to := s.DeviceOf[destVirt]
	self := msgKey{op.Kind, op.Virt, op.Micro, op.Half}
	msg := MsgTrace{Kind: op.Kind, Virt: op.Virt, Micro: op.Micro, Half: op.Half, From: from, To: to}

	switch {
	case op.NoSend:
		// Payload parked until the sibling half's aggregated send.
		r.pendingHalf[self] = end
	case op.AggSend:
		sibling := msgKey{op.Kind, op.Virt, op.Micro, (op.Half + 1) % 2}
		ready := end
		if t, ok := r.pendingHalf[sibling]; ok && t > ready {
			ready = t
		}
		delete(r.pendingHalf, sibling)
		msg.Bytes, msg.Ready = cfg.CommBytes, ready // both halves in one message
		arrival, err := r.transfer(msg)
		if err != nil {
			return err
		}
		r.arrived[self] = arrivalInfo{ready, arrival}
		r.arrived[sibling] = arrivalInfo{ready, arrival}
	default:
		bytes := cfg.CommBytes
		if op.Half >= 0 {
			bytes /= 2
		}
		msg.Bytes, msg.Ready = bytes, end
		arrival, err := r.transfer(msg)
		if err != nil {
			return err
		}
		r.arrived[self] = arrivalInfo{end, arrival}
	}
	return nil
}

// observeRun records the run duration into the "exec.run.seconds" histogram
// and emits an "exec.run" event when a sink is installed — the same telemetry
// a span would produce, without the per-run span allocation.
func observeRun(reg *obs.Registry, sw obs.Stopwatch) {
	if reg == nil {
		return
	}
	secs := sw.Elapsed().Seconds()
	reg.Histogram("exec.run.seconds").Observe(secs)
	if reg.HasSink() {
		reg.Emit("exec.run", obs.Fields{"seconds": secs})
	}
}
