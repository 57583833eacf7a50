package fault

import (
	"sync"

	"autopipe/internal/obs"
)

// Injector is the runtime form of a Plan: the discrete-event executor asks it
// at every operation launch and message send whether a fault applies. The
// injector is stateful — consumed message drops stay consumed, an injected
// OOM fires once — so a retry after a transient fault deterministically
// succeeds once the fault budget is spent. All methods are safe for
// concurrent use and every decision is a pure function of (plan, seed,
// query history), never of wall-clock time or goroutine interleaving.
//
// Each fault bumps the "fault.injected" counter the first time it affects
// execution, so an injected fault is always visible in the metrics instead
// of silently distorting timings.
type Injector struct {
	plan *Plan
	reg  *obs.Registry

	mu       sync.Mutex
	fired    []bool         // whether each fault has affected execution yet
	dropLeft []int          // remaining count-mode drops, per fault
	attempts map[uint64]int // per-(fault,message) attempt counters for Prob drops
}

// New builds an injector for the plan, counting first activations into reg
// (both may be nil: a nil plan injects nothing, a nil registry counts
// nothing).
func New(p *Plan, reg *obs.Registry) *Injector {
	inj := &Injector{plan: p, reg: reg}
	if p != nil {
		inj.fired = make([]bool, len(p.Faults))
		inj.dropLeft = make([]int, len(p.Faults))
		for i := range p.Faults {
			f := &p.Faults[i]
			if f.Kind == MsgDrop && f.Prob == 0 {
				inj.dropLeft[i] = f.Count
				if f.Count == 0 {
					inj.dropLeft[i] = 1
				}
			}
		}
		inj.attempts = map[uint64]int{}
	}
	return inj
}

// fire records that fault i affected execution, counting its first
// activation.
func (in *Injector) fire(i int) {
	if in.fired[i] {
		return
	}
	in.fired[i] = true
	if in.reg != nil {
		in.reg.Counter("fault.injected").Inc()
	}
}

// ComputeScale returns the compute-time multiplier for an operation launched
// on physical device dev at absolute time at: the product of every active
// straggler factor (1 when none). The factor is sampled at launch time and
// held for the operation (piecewise-constant approximation).
func (in *Injector) ComputeScale(dev int, at float64) float64 {
	if in == nil || in.plan == nil {
		return 1
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	scale := 1.0
	for i := range in.plan.Faults {
		f := &in.plan.Faults[i]
		if f.Kind == Straggler && f.Device == dev && f.active(at) {
			scale *= f.Factor
			in.fire(i)
		}
	}
	return scale
}

// LinkFactor returns the bandwidth multiplier for a message entering the
// {from, to} link at absolute time at (1 when no degradation is active).
func (in *Injector) LinkFactor(from, to int, at float64) float64 {
	if in == nil || in.plan == nil {
		return 1
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	scale := 1.0
	for i := range in.plan.Faults {
		f := &in.plan.Faults[i]
		if f.Kind == LinkDegrade && f.onLink(from, to) && f.active(at) {
			scale *= f.Factor
			in.fire(i)
		}
	}
	return scale
}

// LinkBlocked reports whether the {from, to} link is flapped at absolute
// time at. A finite flap returns the time the link comes back (until);
// a permanent flap (Duration 0) returns permanent = true, which the executor
// surfaces as errdefs.ErrLinkDown.
func (in *Injector) LinkBlocked(from, to int, at float64) (until float64, blocked, permanent bool) {
	if in == nil || in.plan == nil {
		return 0, false, false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	for i := range in.plan.Faults {
		f := &in.plan.Faults[i]
		if f.Kind != LinkFlap || !f.onLink(from, to) || !f.active(at) {
			continue
		}
		in.fire(i)
		if f.Duration <= 0 {
			return 0, true, true
		}
		if end := f.At + f.Duration; end > until {
			until, blocked = end, true
		}
	}
	return until, blocked, false
}

// DropAttempt decides whether a message-send attempt on the {from, to} link
// at absolute time at is dropped. key identifies the message (kind, stage,
// micro-batch, half) so probabilistic drops resolve identically on replay:
// the n-th attempt of a given message hashes (seed, fault, key, n). A
// count-mode fault consumes one unit per drop, so retries eventually pass.
func (in *Injector) DropAttempt(from, to int, at float64, key uint64) bool {
	if in == nil || in.plan == nil {
		return false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	for i := range in.plan.Faults {
		f := &in.plan.Faults[i]
		if f.Kind != MsgDrop || !f.onLink(from, to) || !f.active(at) {
			continue
		}
		if f.Prob > 0 {
			ak := mix(uint64(i), key)
			n := in.attempts[ak]
			in.attempts[ak] = n + 1
			if unit(in.plan.Seed, uint64(i), key, uint64(n)) < f.Prob {
				in.fire(i)
				return true
			}
			continue
		}
		if in.dropLeft[i] > 0 {
			in.dropLeft[i]--
			in.fire(i)
			return true
		}
	}
	return false
}

// Crashed reports whether physical device dev is dead at absolute time at,
// and since when. Once a crash fault's time has passed, the device never
// comes back.
func (in *Injector) Crashed(dev int, at float64) (since float64, dead bool) {
	if in == nil || in.plan == nil {
		return 0, false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	for i := range in.plan.Faults {
		f := &in.plan.Faults[i]
		if f.Kind == DeviceCrash && f.Device == dev && at >= f.At {
			if !dead || f.At < since {
				since, dead = f.At, true
			}
			in.fire(i)
		}
	}
	return since, dead
}

// OOMAt reports whether an injected OOM fires for an operation launched on
// physical device dev at absolute time at. Each oom fault fires exactly once
// (the retry after recovery re-launches into a clean allocator).
func (in *Injector) OOMAt(dev int, at float64) bool {
	if in == nil || in.plan == nil {
		return false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	for i := range in.plan.Faults {
		f := &in.plan.Faults[i]
		if f.Kind == DeviceOOM && f.Device == dev && f.active(at) && !in.fired[i] {
			in.fire(i)
			return true
		}
	}
	return false
}

// mix combines two words into one map key.
func mix(a, b uint64) uint64 {
	x := a*0x9E3779B97F4A7C15 + b
	x ^= x >> 29
	return x
}

// unit hashes (seed, fault, message, attempt) into [0,1) with a
// splitmix64-style finalizer — the deterministic substitute for a shared
// random stream, immune to query-order effects.
func unit(seed, fault, key, attempt uint64) float64 {
	x := seed
	x = mix(x, fault+1)
	x = mix(x, key+1)
	x = mix(x, attempt+1)
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	x ^= x >> 31
	return float64(x>>11) / float64(1<<53)
}
