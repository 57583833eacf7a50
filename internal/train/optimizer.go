// Package train provides the training runtimes of the miniature framework:
// a serial reference trainer and a goroutine-based synchronous pipeline
// runtime that executes the very schedules AutoPipe plans (1F1B and the
// sliced warmup), plus the Adam optimizer. Its purpose is to demonstrate, with
// real numbers, the paper's semantic claims: synchronous pipeline
// parallelism computes the same gradients as serial execution, micro-batch
// slicing changes nothing but timing, and sub-layer stage cuts preserve the
// model function.
package train

import (
	"math"

	"autopipe/internal/nn"
	"autopipe/internal/tensor"
)

// Adam is the Adam optimizer (Kingma & Ba), the paper's parameter-update
// phase.
type Adam struct {
	LR, Beta1, Beta2, Eps float64

	t int
	m map[*nn.Param]*tensor.Tensor
	v map[*nn.Param]*tensor.Tensor
}

// NewAdam builds an Adam optimizer with conventional defaults.
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8,
		m: map[*nn.Param]*tensor.Tensor{}, v: map[*nn.Param]*tensor.Tensor{}}
}

// Step updates params from their accumulated gradients.
func (a *Adam) Step(params []*nn.Param) {
	a.t++
	c1 := 1 - math.Pow(a.Beta1, float64(a.t))
	c2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for _, p := range params {
		m, ok := a.m[p]
		if !ok {
			m = tensor.New(p.W.Shape...)
			a.m[p] = m
			a.v[p] = tensor.New(p.W.Shape...)
		}
		v := a.v[p]
		for i, g := range p.Grad.Data {
			m.Data[i] = a.Beta1*m.Data[i] + (1-a.Beta1)*g
			v.Data[i] = a.Beta2*v.Data[i] + (1-a.Beta2)*g*g
			mh := m.Data[i] / c1
			vh := v.Data[i] / c2
			p.W.Data[i] -= a.LR * mh / (math.Sqrt(vh) + a.Eps)
		}
	}
}
