// Package exec is the discrete-event cluster executor — the reproduction's
// stand-in for the paper's 16-GPU Megatron-LM testbed.
//
// It runs a concrete schedule (package schedule) over simulated devices
// connected by full-duplex point-to-point links. Unlike the planner's
// analytic simulator (package sim), the executor models per-operation launch
// overhead, per-message latency and bandwidth, link serialization, and
// optional deterministic jitter. Those second-order effects are exactly what
// makes the paper's Fig. 11 "actual" curve sit at a stable offset above the
// simulator curve.
package exec

import (
	"fmt"
	"math"
	"strings"

	"autopipe/internal/config"
	"autopipe/internal/errdefs"
	"autopipe/internal/obs"
	"autopipe/internal/schedule"
)

// Config parameterizes one execution.
type Config struct {
	// VirtFwd and VirtBwd are the per-virtual-stage forward and backward
	// compute times in seconds (half ops take half the forward time).
	VirtFwd, VirtBwd []float64
	// CommBytes is the cross-stage activation (and gradient) payload.
	CommBytes int64
	// Network provides link latency and bandwidth.
	Network config.Network
	// KernelOverhead is a fixed per-operation launch cost.
	KernelOverhead float64
	// Jitter, if positive, scales deterministic pseudo-random noise applied
	// multiplicatively to compute times (e.g. 0.02 for ±2%).
	Jitter float64
	// Seed selects the jitter stream.
	Seed uint64
	// Obs, if non-nil, receives execution counters (ops, messages, bytes)
	// and a run span.
	Obs *obs.Registry
	// Sanitize threads the runtime happens-before checker (Sanitizer) through
	// the event loop: every recorded op and transfer is validated against the
	// schedule dependency model as it happens, and a violation aborts the run
	// with an error wrapping errdefs.ErrInternal. Exposed as pipesim's
	// -sanitize; always on under the package's tests.
	Sanitize bool
}

// Validate reports the first structural problem with the config: mismatched
// or negative stage-time vectors, a non-positive link bandwidth, negative
// latency, jitter, overhead, or payload. Errors wrap
// errdefs.ErrBadConfig, so a bad config fails up front instead of producing
// NaN timings or panics deep inside the event loop.
func (cfg Config) Validate() error {
	if len(cfg.VirtFwd) != len(cfg.VirtBwd) {
		return fmt.Errorf("%w: exec: %d forward times but %d backward times",
			errdefs.ErrBadConfig, len(cfg.VirtFwd), len(cfg.VirtBwd))
	}
	for i := range cfg.VirtFwd {
		if cfg.VirtFwd[i] < 0 || math.IsNaN(cfg.VirtFwd[i]) || cfg.VirtBwd[i] < 0 || math.IsNaN(cfg.VirtBwd[i]) {
			return fmt.Errorf("%w: exec: negative or NaN stage time at virtual stage %d", errdefs.ErrBadConfig, i)
		}
	}
	if cfg.CommBytes < 0 {
		return fmt.Errorf("%w: exec: negative payload %d bytes", errdefs.ErrBadConfig, cfg.CommBytes)
	}
	if cfg.Network.Bandwidth <= 0 || math.IsNaN(cfg.Network.Bandwidth) {
		return fmt.Errorf("%w: exec: link bandwidth must be positive, got %g", errdefs.ErrBadConfig, cfg.Network.Bandwidth)
	}
	if cfg.Network.Latency < 0 || math.IsNaN(cfg.Network.Latency) {
		return fmt.Errorf("%w: exec: negative link latency %g", errdefs.ErrBadConfig, cfg.Network.Latency)
	}
	if cfg.KernelOverhead < 0 || math.IsNaN(cfg.KernelOverhead) {
		return fmt.Errorf("%w: exec: negative kernel overhead %g", errdefs.ErrBadConfig, cfg.KernelOverhead)
	}
	if cfg.Jitter < 0 || math.IsNaN(cfg.Jitter) {
		return fmt.Errorf("%w: exec: negative jitter %g", errdefs.ErrBadConfig, cfg.Jitter)
	}
	return nil
}

// OpTrace records one executed operation.
type OpTrace struct {
	Op         schedule.Op
	Device     int
	Start, End float64
	// InputReady and InputArrive are the op's cross-stage input payload-ready
	// time (producer compute done, transfer could begin) and arrival time at
	// this device; both are -1 when the op has no cross-stage input. The gap
	// between them is time the payload spent queued on or crossing the link,
	// the basis of the comm-wait/dependency-wait bubble split.
	InputReady, InputArrive float64
}

// MsgTrace records one cross-stage payload transfer.
type MsgTrace struct {
	// Kind, Virt, Micro, Half identify the producing op.
	Kind  schedule.OpKind
	Virt  int
	Micro int
	Half  int
	// From and To are the endpoint devices (equal for a same-device hop
	// between interleaved virtual stages, which occupies no link).
	From, To int
	// Bytes is the payload size (both halves for an aggregated send).
	Bytes int64
	// Ready is when the payload was complete on the producer; Start is when
	// it entered the link (after queueing behind earlier messages); Free is
	// when the link finished serializing it; Arrive is when the consumer can
	// use it (Free + latency).
	Ready, Start, Free, Arrive float64
}

// Result is the outcome of executing a schedule.
type Result struct {
	// IterTime is the makespan: the end of the last operation.
	IterTime float64
	// Startup is the start time of the first compute op on the last device:
	// the moment the last pipeline stage has received the activations of the
	// first micro-batch (the paper's startup-overhead metric).
	Startup float64
	// Traces holds per-device executed ops in issue order.
	Traces [][]OpTrace
	// Busy is per-device total compute time.
	Busy []float64
	// Msgs holds every cross-stage transfer in issue order.
	Msgs []MsgTrace
}

type msgKey struct {
	kind  schedule.OpKind
	virt  int // producer's virtual stage
	micro int
	half  int
}

// arrivalInfo records a delivered cross-stage payload: when the producer had
// it ready to transfer and when the consumer received it.
type arrivalInfo struct {
	ready, arrival float64
}

// inputsReady reports whether op's cross-stage input (if any) has arrived,
// and with what timing. hasInput is false for ops with no cross-stage
// dependency.
func inputsReady(op schedule.Op, s *schedule.Schedule, arrived map[msgKey]arrivalInfo) (ready bool, info arrivalInfo, hasInput bool) {
	var need msgKey
	switch {
	case op.Kind == schedule.Fwd && op.Virt > 0:
		need = msgKey{schedule.Fwd, op.Virt - 1, op.Micro, op.Half}
	case op.Kind == schedule.Bwd && op.Virt < s.VirtStages-1:
		need = msgKey{schedule.Bwd, op.Virt + 1, op.Micro, op.Half}
	default:
		return true, arrivalInfo{}, false
	}
	info, ok := arrived[need]
	return ok, info, true
}

// opDuration returns op's compute time, with optional jitter.
func opDuration(op schedule.Op, cfg Config, rng *jitterStream) float64 {
	var dur float64
	if op.Kind == schedule.Fwd {
		dur = cfg.VirtFwd[op.Virt]
	} else {
		dur = cfg.VirtBwd[op.Virt]
	}
	if op.Half >= 0 {
		dur /= 2
	}
	if cfg.Jitter > 0 {
		dur *= 1 + cfg.Jitter*rng.next()
	}
	return dur
}

// jitterStream is a splitmix64-style deterministic noise source in [0,1).
type jitterStream struct{ state uint64 }

func (j *jitterStream) next() float64 {
	j.state += 0x9E3779B97F4A7C15
	z := j.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return float64(z>>11) / float64(1<<53)
}

// Gantt renders a text timeline, one device per row, for debugging and the
// pipesim tool. A result with no devices renders a single header line; a
// device with no ops renders its row header with no entries.
func (r *Result) Gantt() string {
	if len(r.Traces) == 0 {
		return "(empty trace)\n"
	}
	var sb strings.Builder
	for d, traces := range r.Traces {
		fmt.Fprintf(&sb, "dev %d:", d)
		for _, tr := range traces {
			fmt.Fprintf(&sb, " %s[%.2f,%.2f]", tr.Op, tr.Start*1e3, tr.End*1e3)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Utilization returns per-device busy fraction of the makespan. When the
// makespan is zero (an empty or degenerate execution) every fraction is 0
// rather than NaN/Inf from a zero division.
func (r *Result) Utilization() []float64 {
	out := make([]float64, len(r.Busy))
	if r.IterTime <= 0 {
		return out
	}
	for i, b := range r.Busy {
		out[i] = b / r.IterTime
	}
	return out
}
