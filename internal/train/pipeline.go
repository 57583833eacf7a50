package train

import (
	"errors"
	"fmt"
	"sync"

	"autopipe/internal/errdefs"
	"autopipe/internal/nn"
	"autopipe/internal/obs"
	"autopipe/internal/schedule"
	"autopipe/internal/tensor"
)

// Pipeline is a synchronous pipeline-parallel runtime: each stage owns a
// contiguous slice of the model's module array (a sub-layer granularity cut,
// exactly like a planner partition) and runs as its own goroutine,
// exchanging activations and gradients over channels. The execution order on
// every stage comes from the same schedule builder the timing executor uses,
// so what is trained here is literally the schedule AutoPipe plans.
type Pipeline struct {
	Bounds []int
	Stages [][]nn.Module
	// Obs, when set, receives per-step training telemetry: a "train.step"
	// span, step/micro-batch/op counters, and the latest scaled loss as a
	// gauge. The registry is safe for the concurrent stage goroutines.
	Obs *obs.Registry
}

// NewPipeline cuts mods at bounds (len = stages+1, spanning the module
// array).
func NewPipeline(mods []nn.Module, bounds []int) (*Pipeline, error) {
	if len(bounds) < 2 || bounds[0] != 0 || bounds[len(bounds)-1] != len(mods) {
		return nil, fmt.Errorf("%w: train: bounds %v must span [0,%d]", errdefs.ErrBadConfig, bounds, len(mods))
	}
	p := &Pipeline{Bounds: append([]int(nil), bounds...)}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			return nil, fmt.Errorf("%w: train: empty stage at bound %d: %v", errdefs.ErrBadConfig, i, bounds)
		}
		p.Stages = append(p.Stages, mods[bounds[i-1]:bounds[i]])
	}
	return p, nil
}

// Params returns the parameters of one stage.
func (p *Pipeline) Params(stage int) []*nn.Param { return nn.CollectParams(p.Stages[stage]) }

// AllParams returns every parameter across stages.
func (p *Pipeline) AllParams() []*nn.Param {
	var ps []*nn.Param
	for i := range p.Stages {
		ps = append(ps, p.Params(i)...)
	}
	return ps
}

type pipeMsg struct {
	micro, half int
	x           *tensor.Tensor
}

type microState struct {
	ctxs   map[int][]nn.Ctx       // half (-1 full, 0, 1) -> per-module contexts
	logits map[int]*tensor.Tensor // last stage only
	labels map[int]*tensor.Tensor // last stage only
}

// Step runs one training iteration: every micro-batch flows through the
// pipeline under the 1F1B schedule (with the first numSliced micro-batch
// forwards split in half, AutoPipe's sliced warmup), cross-entropy gradients
// scaled by scale accumulate into each stage's parameters, and the summed
// scaled loss is returned. Semantically this matches SerialStep over the
// same micro-batches; the tests assert it.
func (p *Pipeline) Step(micros []Batch, numSliced int, scale float64) (float64, error) {
	nStages := len(p.Stages)
	m := len(micros)
	if m == 0 {
		return 0, fmt.Errorf("%w: train: no micro-batches", errdefs.ErrBadConfig)
	}
	sched, err := schedule.Sliced(nStages, m, numSliced)
	if err != nil {
		return 0, err
	}
	var span *obs.Span
	if p.Obs != nil {
		span = p.Obs.StartSpan("train.step")
	}

	// Channels are buffered to the full op count so sends never block;
	// ordering correctness is asserted on receive. A failing stage closes
	// abort so its neighbors' receives unblock instead of deadlocking.
	fwd := make([]chan pipeMsg, nStages-1)
	bwd := make([]chan pipeMsg, nStages-1)
	for i := range fwd {
		fwd[i] = make(chan pipeMsg, 2*m+2)
		bwd[i] = make(chan pipeMsg, 2*m+2)
	}
	errs := make(chan error, nStages)
	lossCh := make(chan float64, 1)
	abort := make(chan struct{})
	var abortOnce sync.Once
	var wg sync.WaitGroup

	for s := 0; s < nStages; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			if err := p.runStage(s, sched, micros, scale, fwd, bwd, lossCh, abort); err != nil {
				errs <- fmt.Errorf("train: stage %d: %w", s, err)
				abortOnce.Do(func() { close(abort) })
			}
		}(s)
	}
	wg.Wait()
	close(errs)
	var firstErr error
	for err := range errs {
		if firstErr == nil || errors.Is(firstErr, errPipelineAborted) {
			firstErr = err
		}
	}
	if firstErr != nil {
		return 0, firstErr
	}
	var loss float64
	if nStages == 1 {
		loss = <-lossCh
	} else {
		select {
		case loss = <-lossCh:
		default:
			return 0, fmt.Errorf("%w: train: last stage produced no loss", errdefs.ErrInternal)
		}
	}
	if p.Obs != nil {
		span.End()
		p.Obs.Counter("train.steps").Inc()
		p.Obs.Counter("train.micros").Add(float64(m))
		ops := 0
		for _, stage := range sched.Ops {
			ops += len(stage)
		}
		p.Obs.Counter("train.ops").Add(float64(ops))
		p.Obs.Gauge("train.loss").Set(loss)
	}
	return loss, nil
}

// errPipelineAborted marks a stage unblocked by a peer's failure; the peer's
// own error is the one reported.
var errPipelineAborted = errors.New("aborted by peer stage failure")

func (p *Pipeline) runStage(s int, sched *schedule.Schedule, micros []Batch, scale float64,
	fwd, bwd []chan pipeMsg, lossCh chan<- float64, abort <-chan struct{}) error {

	nStages := len(p.Stages)
	mods := p.Stages[s]
	states := make(map[int]*microState)
	state := func(µ int) *microState {
		st, ok := states[µ]
		if !ok {
			st = &microState{ctxs: map[int][]nn.Ctx{}, logits: map[int]*tensor.Tensor{}, labels: map[int]*tensor.Tensor{}}
			states[µ] = st
		}
		return st
	}
	var loss float64

	recv := func(ch chan pipeMsg, micro, half int) (*tensor.Tensor, error) {
		select {
		case msg := <-ch:
			if msg.micro != micro || msg.half != half {
				return nil, fmt.Errorf("%w: out-of-order message: got (µ%d,h%d), want (µ%d,h%d)", errdefs.ErrInternal, msg.micro, msg.half, micro, half)
			}
			return msg.x, nil
		case <-abort:
			return nil, errPipelineAborted
		}
	}

	for _, op := range sched.Ops[s] {
		switch op.Kind {
		case schedule.Fwd:
			var x *tensor.Tensor
			st := state(op.Micro)
			if s == 0 {
				mb := micros[op.Micro]
				if op.Half >= 0 {
					a, b, err := mb.Split()
					if err != nil {
						return err
					}
					halves := [2]Batch{a, b}
					mb = halves[op.Half]
				}
				x = mb.Inputs
			} else {
				var err error
				if x, err = recv(fwd[s-1], op.Micro, op.Half); err != nil {
					return err
				}
			}
			y, ctxs := nn.ForwardAll(mods, x)
			st.ctxs[op.Half] = ctxs
			if s == nStages-1 {
				// Hold the logits and labels for the backward op's loss.
				tg := micros[op.Micro].Targets
				if op.Half >= 0 {
					a, b, err := micros[op.Micro].Split()
					if err != nil {
						return err
					}
					halves := [2]Batch{a, b}
					tg = halves[op.Half].Targets
				}
				st.logits[op.Half] = y
				st.labels[op.Half] = tg
			} else {
				fwd[s] <- pipeMsg{micro: op.Micro, half: op.Half, x: y}
			}

		case schedule.Bwd:
			st := state(op.Micro)
			_, sliced := st.ctxs[0]
			halves := []int{-1}
			if sliced {
				halves = []int{0, 1}
			}
			var dyFull *tensor.Tensor
			if s != nStages-1 {
				var err error
				if dyFull, err = recv(bwd[s], op.Micro, -1); err != nil {
					return err
				}
			}
			var dxParts []*tensor.Tensor
			for _, h := range halves {
				var dy *tensor.Tensor
				if s == nStages-1 {
					l, dLogits := nn.CrossEntropy(st.logits[h], st.labels[h])
					loss += l * scale
					dLogits.ScaleInPlace(scale)
					dy = dLogits
				} else if sliced {
					half := dyFull.Shape[0] / 2
					a, b := dyFull.SplitRows(half)
					parts := [2]*tensor.Tensor{a, b}
					dy = parts[h].Clone()
				} else {
					dy = dyFull
				}
				dx := nn.BackwardAll(mods, st.ctxs[h], dy)
				if dx != nil {
					dxParts = append(dxParts, dx)
				}
			}
			delete(states, op.Micro)
			if s > 0 {
				var dx *tensor.Tensor
				switch len(dxParts) {
				case 1:
					dx = dxParts[0]
				case 2:
					dx = tensor.ConcatRows(dxParts...)
				default:
					return fmt.Errorf("%w: micro %d produced no input gradient", errdefs.ErrInternal, op.Micro)
				}
				bwd[s-1] <- pipeMsg{micro: op.Micro, half: -1, x: dx}
			}
		}
	}
	if s == nStages-1 {
		lossCh <- loss
	}
	return nil
}
