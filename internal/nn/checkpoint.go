package nn

import "autopipe/internal/tensor"

// Checkpointed wraps a module with activation checkpointing (paper §II-C):
// the forward pass stashes only the module input, and the backward pass
// re-executes the forward before back-propagating. This trades one extra
// forward per backward for dropping the module's intermediate activations —
// the same trade the paper makes in every experiment, and the reason the
// cost model's checkpointed backward time is b + f.
type Checkpointed struct {
	Inner Module
}

// Checkpoint wraps m.
func Checkpoint(m Module) *Checkpointed { return &Checkpointed{Inner: m} }

type ckptCtx struct{ x *tensor.Tensor }

// Forward implements Module: it runs the inner forward but keeps only the
// input for backward.
func (c *Checkpointed) Forward(x *tensor.Tensor) (*tensor.Tensor, Ctx) {
	y, _ := c.Inner.Forward(x) // inner context (the activations) is dropped
	return y, ckptCtx{x: x}
}

// Backward implements Module: recompute-then-backprop.
func (c *Checkpointed) Backward(ctx Ctx, dy *tensor.Tensor) *tensor.Tensor {
	cc := ctx.(ckptCtx)
	_, inner := c.Inner.Forward(cc.x)
	return c.Inner.Backward(inner, dy)
}

// Params implements Module.
func (c *Checkpointed) Params() []*Param { return c.Inner.Params() }
