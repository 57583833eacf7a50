package exec

import (
	"fmt"
	"math"

	"autopipe/internal/errdefs"
	"autopipe/internal/obs"
	"autopipe/internal/schedule"
)

// run is the working state of one execution: the schedule and config, the
// sanitizer when the execution is checked, the arrival and link maps the
// event loop consults, and the Result it fills.
type run struct {
	s   *schedule.Schedule
	cfg Config
	san *Sanitizer // nil when this execution is not sanitized

	arrived     map[msgKey]arrivalInfo
	pendingHalf map[msgKey]float64
	linkFree    map[[2]int]float64
	devFree     []float64
	next        []int
	res         Result
}

// Run executes s under cfg; it is the executor's only entry point. Each call
// validates s and cfg, builds its own working state (and a Sanitizer when
// cfg.Sanitize asks for one), and returns a Result that belongs to the
// caller: nothing else holds or reuses it. Run is small enough to inline, so
// a caller that drops the Result keeps the working state on its stack.
func Run(s *schedule.Schedule, cfg Config) (*Result, error) {
	var r run
	return r.exec(s, cfg)
}

// exec validates s and cfg, sets up r and runs the event loop.
func (r *run) exec(s *schedule.Schedule, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if len(cfg.VirtFwd) != s.VirtStages || len(cfg.VirtBwd) != s.VirtStages {
		return nil, fmt.Errorf("%w: exec: schedule has %d virtual stages, config has %d fwd / %d bwd times",
			errdefs.ErrBadConfig, s.VirtStages, len(cfg.VirtFwd), len(cfg.VirtBwd))
	}
	r.s, r.cfg = s, cfg
	if cfg.Sanitize || testSanitize {
		san, err := newSanitizer(s, cfg)
		if err != nil {
			return nil, err
		}
		r.san = san
	}
	var sw obs.Stopwatch
	if cfg.Obs != nil {
		sw = obs.NewStopwatch()
	}
	r.arrived = map[msgKey]arrivalInfo{}
	r.pendingHalf = map[msgKey]float64{}
	r.linkFree = map[[2]int]float64{}
	r.devFree = make([]float64, s.Devices)
	r.next = make([]int, s.Devices)
	res := &r.res
	res.Startup = math.NaN()
	res.Traces = make([][]OpTrace, s.Devices)
	res.Busy = make([]float64, s.Devices)

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
				end := start + dur
				r.devFree[d] = end
				res.Busy[d] += dur
				tr := OpTrace{Op: op, Device: d, Start: start, End: end, InputReady: -1, InputArrive: -1}
				if hasInput {
					tr.InputReady, tr.InputArrive = input.ready, input.arrival
				}
				res.Traces[d] = append(res.Traces[d], tr)
				if r.san != nil {
					if err := r.san.checkOp(tr); err != nil {
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

	if r.san != nil {
		if err := r.san.finish(); err != nil {
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
// serialization and latency, and records the trace.
func (r *run) transfer(m MsgTrace) (float64, error) {
	cfg := &r.cfg
	if m.From == m.To {
		m.Start, m.Free, m.Arrive = m.Ready, m.Ready, m.Ready
		r.res.Msgs = append(r.res.Msgs, m)
		if r.san != nil {
			if err := r.san.checkMsg(m); err != nil {
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
	m.Arrive = m.Start + cfg.Network.Latency + float64(m.Bytes)/cfg.Network.Bandwidth
	m.Free = m.Arrive - cfg.Network.Latency
	r.linkFree[key] = m.Free
	r.res.Msgs = append(r.res.Msgs, m)
	if r.san != nil {
		if err := r.san.checkMsg(m); err != nil {
			return 0, err
		}
	}
	return m.Arrive, nil
}

// deliver schedules op's output transfer (if any) and deposits the arrival
// times consumers wait on. A sanitizer violation on the transfer propagates
// as its error.
func (r *run) deliver(op schedule.Op, end float64) error {
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
// — the same telemetry a span would produce, without the per-run span
// allocation.
func observeRun(reg *obs.Registry, sw obs.Stopwatch) {
	if reg == nil {
		return
	}
	reg.Histogram("exec.run.seconds").Observe(sw.Elapsed().Seconds())
}
