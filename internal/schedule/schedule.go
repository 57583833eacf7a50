// Package schedule materializes concrete pipeline schedules — the per-device
// operation sequences that the discrete-event executor (package exec) runs.
//
// Four schedules are provided:
//
//   - OneFOneB: the Megatron-LM / PipeDream-flush default the paper builds on.
//   - GPipe: all forwards then all backwards (ablation baseline).
//   - Interleaved: Megatron's interleaved 1F1B with v model chunks per
//     device (the startup-reduction baseline of paper Fig. 14).
//   - Sliced: AutoPipe's rescheduled warmup in which the leading micro-batch
//     forwards are split in half, with the first half's communication
//     cancelled and aggregated into the second half's at each stage's last
//     warmup forward (paper §III-C).
//
// Schedules are expressed over virtual stages so interleaving fits the same
// executor: virtual stage s runs on device DeviceOf[s]; for non-interleaved
// schedules the mapping is the identity.
package schedule

import "fmt"

// OpKind distinguishes forward from backward compute.
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

// Op is one compute operation in a device's issue order.
type Op struct {
	Kind OpKind
	// Virt is the virtual stage the op computes.
	Virt int
	// Micro is the micro-batch index.
	Micro int
	// Half is -1 for a full micro-batch, or 0/1 for the halves of a sliced
	// one. Only forwards are ever sliced.
	Half int
	// NoSend suppresses this op's output transfer: the payload rides along
	// with the sibling half's aggregated send.
	NoSend bool
	// AggSend marks a send that carries both halves (double payload, and it
	// satisfies the downstream dependency for both halves at once).
	AggSend bool
}

func (o Op) String() string {
	h := ""
	switch o.Half {
	case 0:
		h = "a"
	case 1:
		h = "b"
	}
	return fmt.Sprintf("%s%d%s@s%d", o.Kind, o.Micro, h, o.Virt)
}

// Schedule is a complete per-device op layout.
type Schedule struct {
	Name string
	// Devices is the number of physical pipeline devices.
	Devices int
	// VirtStages is the number of virtual stages (= Devices unless
	// interleaved, where it is Devices*Chunks).
	VirtStages int
	// DeviceOf maps a virtual stage to its device.
	DeviceOf []int
	// Ops lists each device's operations in issue order.
	Ops [][]Op
	// NumMicro is the number of micro-batches per iteration.
	NumMicro int
	// Chunks is the interleaving factor (1 when not interleaved).
	Chunks int
	// NumSliced is the number of sliced micro-batches (0 unless Sliced).
	NumSliced int
}

// Validate checks structural invariants: every device executes one forward
// and one backward per (micro-batch, virtual stage) it hosts, halves pair
// up, and virtual stages map onto valid devices.
func (s *Schedule) Validate() error {
	if s.Devices <= 0 || s.VirtStages < s.Devices {
		return fmt.Errorf("schedule %s: bad shape: %d devices, %d virtual stages", s.Name, s.Devices, s.VirtStages)
	}
	if len(s.DeviceOf) != s.VirtStages {
		return fmt.Errorf("schedule %s: DeviceOf has %d entries, want %d", s.Name, len(s.DeviceOf), s.VirtStages)
	}
	type key struct {
		virt, micro int
		kind        OpKind
	}
	credit := map[key]float64{}
	for d, ops := range s.Ops {
		for _, op := range ops {
			if op.Virt < 0 || op.Virt >= s.VirtStages {
				return fmt.Errorf("schedule %s: device %d: op %v has bad virtual stage", s.Name, d, op)
			}
			if s.DeviceOf[op.Virt] != d {
				return fmt.Errorf("schedule %s: op %v scheduled on device %d, want %d", s.Name, op, d, s.DeviceOf[op.Virt])
			}
			if op.Micro < 0 || op.Micro >= s.NumMicro {
				return fmt.Errorf("schedule %s: op %v has bad micro-batch", s.Name, op)
			}
			w := 1.0
			if op.Half >= 0 {
				if op.Kind != Fwd {
					return fmt.Errorf("schedule %s: sliced backward %v", s.Name, op)
				}
				w = 0.5
			}
			credit[key{op.Virt, op.Micro, op.Kind}] += w
		}
	}
	for v := 0; v < s.VirtStages; v++ {
		for µ := 0; µ < s.NumMicro; µ++ {
			if c := credit[key{v, µ, Fwd}]; c != 1 {
				return fmt.Errorf("schedule %s: virt %d micro %d: forward credit %v, want 1", s.Name, v, µ, c)
			}
			if c := credit[key{v, µ, Bwd}]; c != 1 {
				return fmt.Errorf("schedule %s: virt %d micro %d: backward credit %v, want 1", s.Name, v, µ, c)
			}
		}
	}
	return nil
}

// Phase labels the pipeline phase an op belongs to on its device's
// timeline, the unit of the executor's bubble decomposition (paper Fig. 5).
type Phase int

const (
	// Warmup ops are the forwards a device issues before its first backward.
	Warmup Phase = iota
	// Steady ops alternate forwards and backwards (the 1F1B phase).
	Steady
	// Cooldown ops are the backwards after the device's last forward.
	Cooldown
)

var phaseNames = [...]string{"warmup", "steady", "cooldown"}

func (p Phase) String() string { return phaseNames[p] }

// PhasesOf classifies one device's issue-order op list. The Steady (1F1B)
// phase starts at the forward block paired with the device's first backward
// — the forward(s) immediately preceding it with the same micro-batch, so a
// sliced pair of halves enters Steady together, matching the paper's Fig. 6
// block pairing — and ends at the backward paired with the device's last
// forward; everything before is Warmup and everything after is Cooldown.
// The rule needs no schedule metadata, so it applies uniformly to 1F1B,
// GPipe, sliced, and interleaved layouts, and on 1F1B it reproduces exactly
// the phase labels of the analytic simulator (package sim).
func PhasesOf(ops []Op) []Phase {
	firstBwd, lastFwd := len(ops), -1
	for i, op := range ops {
		if op.Kind == Bwd && firstBwd == len(ops) {
			firstBwd = i
		}
		if op.Kind == Fwd {
			lastFwd = i
		}
	}
	steadyStart := firstBwd
	for steadyStart > 0 && ops[steadyStart-1].Kind == Fwd && ops[steadyStart-1].Micro == ops[firstBwd-1].Micro {
		steadyStart--
	}
	steadyEnd := lastFwd
	if lastFwd+1 < len(ops) && ops[lastFwd+1].Kind == Bwd {
		steadyEnd = lastFwd + 1
	}
	out := make([]Phase, len(ops))
	for i := range ops {
		switch {
		case i < steadyStart:
			out[i] = Warmup
		case i > steadyEnd:
			out[i] = Cooldown
		default:
			out[i] = Steady
		}
	}
	return out
}

func identity(p int) []int {
	m := make([]int, p)
	for i := range m {
		m[i] = i
	}
	return m
}

// OneFOneB builds the standard synchronous 1F1B schedule for p stages and m
// micro-batches.
func OneFOneB(p, m int) (*Schedule, error) {
	if p <= 0 || m <= 0 {
		return nil, fmt.Errorf("schedule: 1F1B needs positive depth and micro-batches, got p=%d m=%d", p, m)
	}
	s := &Schedule{Name: "1F1B", Devices: p, VirtStages: p, DeviceOf: identity(p), NumMicro: m, Chunks: 1}
	s.Ops = make([][]Op, p)
	for x := 0; x < p; x++ {
		warm := p - 1 - x
		if warm > m {
			warm = m
		}
		var ops []Op
		for µ := 0; µ < warm; µ++ {
			ops = append(ops, Op{Kind: Fwd, Virt: x, Micro: µ, Half: -1})
		}
		for y := 0; y < m-warm; y++ {
			ops = append(ops, Op{Kind: Fwd, Virt: x, Micro: warm + y, Half: -1})
			ops = append(ops, Op{Kind: Bwd, Virt: x, Micro: y, Half: -1})
		}
		for µ := m - warm; µ < m; µ++ {
			ops = append(ops, Op{Kind: Bwd, Virt: x, Micro: µ, Half: -1})
		}
		s.Ops[x] = ops
	}
	return s, nil
}

// GPipe builds the fill-drain schedule: every stage runs all m forwards,
// then all m backwards.
func GPipe(p, m int) (*Schedule, error) {
	if p <= 0 || m <= 0 {
		return nil, fmt.Errorf("schedule: GPipe needs positive depth and micro-batches, got p=%d m=%d", p, m)
	}
	s := &Schedule{Name: "GPipe", Devices: p, VirtStages: p, DeviceOf: identity(p), NumMicro: m, Chunks: 1}
	s.Ops = make([][]Op, p)
	for x := 0; x < p; x++ {
		var ops []Op
		for µ := 0; µ < m; µ++ {
			ops = append(ops, Op{Kind: Fwd, Virt: x, Micro: µ, Half: -1})
		}
		for µ := 0; µ < m; µ++ {
			ops = append(ops, Op{Kind: Bwd, Virt: x, Micro: µ, Half: -1})
		}
		s.Ops[x] = ops
	}
	return s, nil
}

// Sliced builds AutoPipe's rescheduled 1F1B: the forwards of the first
// numSliced micro-batches are split into two halves at every stage. At each
// stage's final warmup forward the first half's send is cancelled and
// aggregated with the second half's, which avoids the blockage the paper
// describes (§III-C). With numSliced 0 nothing is split, and Sliced returns
// exactly what OneFOneB(p, m) does, name included.
func Sliced(p, m, numSliced int) (*Schedule, error) {
	if numSliced < 0 || numSliced > m {
		return nil, fmt.Errorf("schedule: sliced count %d out of range [0,%d]", numSliced, m)
	}
	base, err := OneFOneB(p, m)
	if err != nil || numSliced == 0 {
		return base, err
	}
	s := &Schedule{
		Name: "Sliced-1F1B", Devices: p, VirtStages: p, DeviceOf: identity(p),
		NumMicro: m, Chunks: 1, NumSliced: numSliced,
	}
	s.Ops = make([][]Op, p)
	for x := 0; x < p; x++ {
		// The blockage the paper describes hits the forward issued right
		// before each stage's first backward (micro-batch p-1-x, e.g.
		// micro-batch 1 at stage 2 of a 4-stage pipeline): the downstream
		// stage is already busy in 1F1B, so the first half's transfer is
		// cancelled and aggregated with the second half's.
		blocking := p - 1 - x
		var ops []Op
		for _, op := range base.Ops[x] {
			if op.Kind == Fwd && op.Micro < numSliced {
				agg := op.Micro == blocking && x < p-1
				ops = append(ops,
					Op{Kind: Fwd, Virt: x, Micro: op.Micro, Half: 0, NoSend: agg},
					Op{Kind: Fwd, Virt: x, Micro: op.Micro, Half: 1, AggSend: agg},
				)
				continue
			}
			ops = append(ops, op)
		}
		s.Ops[x] = ops
	}
	return s, nil
}

// Interleaved builds Megatron-LM's interleaved 1F1B schedule with v model
// chunks per device. Virtual stage c*p+d is chunk c of device d; micro-batch
// forwards sweep the virtual stages in groups of p, and each device warms up
// with 2(p-d-1) + (v-1)p forwards before alternating (Narayanan et al.,
// SC'21). Requires m to be a multiple of p, Megatron's own constraint.
func Interleaved(p, m, v int) (*Schedule, error) {
	if p <= 0 || m <= 0 || v <= 1 {
		return nil, fmt.Errorf("schedule: interleaved needs p>0, m>0, chunks>1; got p=%d m=%d v=%d", p, m, v)
	}
	if m%p != 0 {
		return nil, fmt.Errorf("schedule: interleaved requires micro-batches (%d) divisible by pipeline depth (%d)", m, p)
	}
	s := &Schedule{Name: fmt.Sprintf("Interleaved-%d", v), Devices: p, VirtStages: p * v, NumMicro: m, Chunks: v}
	s.DeviceOf = make([]int, p*v)
	for c := 0; c < v; c++ {
		for d := 0; d < p; d++ {
			s.DeviceOf[c*p+d] = d
		}
	}
	s.Ops = make([][]Op, p)
	total := m * v
	for d := 0; d < p; d++ {
		// Sequence position k of the forward stream maps to chunk
		// (k/p) mod v and micro-batch (k/(p*v))*p + k mod p; the backward
		// stream mirrors it with reversed chunk order.
		fwdOp := func(k int) Op {
			chunk := (k / p) % v
			µ := (k/(p*v))*p + k%p
			return Op{Kind: Fwd, Virt: chunk*p + d, Micro: µ, Half: -1}
		}
		bwdOp := func(k int) Op {
			chunk := v - 1 - (k/p)%v
			µ := (k/(p*v))*p + k%p
			return Op{Kind: Bwd, Virt: chunk*p + d, Micro: µ, Half: -1}
		}
		warm := 2*(p-d-1) + (v-1)*p
		if warm > total {
			warm = total
		}
		var ops []Op
		kf, kb := 0, 0
		for ; kf < warm; kf++ {
			ops = append(ops, fwdOp(kf))
		}
		for kf < total {
			ops = append(ops, fwdOp(kf))
			kf++
			ops = append(ops, bwdOp(kb))
			kb++
		}
		for kb < total {
			ops = append(ops, bwdOp(kb))
			kb++
		}
		s.Ops[d] = ops
	}
	return s, nil
}
