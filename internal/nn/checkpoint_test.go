package nn

import (
	"math"
	"testing"

	"autopipe/internal/tensor"
)

// checkpointAll wraps every module of a model.
func checkpointAll(mods []Module) []Module {
	out := make([]Module, len(mods))
	for i, m := range mods {
		out[i] = Checkpoint(m)
	}
	return out
}

// TestCheckpointedGradientsIdentical: recompute-then-backprop must produce
// bitwise-identical gradients to the plain backward (the computation is
// deterministic, so re-running the forward reproduces the activations
// exactly) — the paper's justification for using checkpointing everywhere
// without touching convergence.
func TestCheckpointedGradientsIdentical(t *testing.T) {
	cfg := TinyGPT()
	plain := BuildGPT(cfg)
	wrapped := checkpointAll(BuildGPT(cfg)) // same seed -> same weights

	rng := tensor.NewRNG(21)
	B, S := 2, 5
	in := tensor.New(B, S)
	tg := tensor.New(B, S)
	for i := range in.Data {
		in.Data[i] = float64(rng.Intn(cfg.Vocab))
		tg.Data[i] = float64(rng.Intn(cfg.Vocab))
	}

	runStep := func(mods []Module) ([]float64, float64) {
		y, ctxs := ForwardAll(mods, in)
		loss, dLogits := CrossEntropy(y, tg)
		ZeroGrads(CollectParams(mods))
		BackwardAll(mods, ctxs, dLogits)
		var grads []float64
		for _, p := range CollectParams(mods) {
			grads = append(grads, p.Grad.Data...)
		}
		return grads, loss
	}

	gPlain, lPlain := runStep(plain)
	gCkpt, lCkpt := runStep(wrapped)
	if lPlain != lCkpt {
		t.Fatalf("losses differ: %v vs %v", lPlain, lCkpt)
	}
	for i := range gPlain {
		if gPlain[i] != gCkpt[i] {
			t.Fatalf("gradient %d differs: %v vs %v", i, gPlain[i], gCkpt[i])
		}
	}
}

// TestCheckpointedSupportsMultipleInFlight: a checkpointed module keeps one
// tiny context per in-flight micro-batch, so interleaving forwards before
// backwards (the 1F1B pattern) must still work.
func TestCheckpointedSupportsMultipleInFlight(t *testing.T) {
	rng := tensor.NewRNG(5)
	m := Checkpoint(NewResidualFFNBlock("ffn", 8, 4, rng))
	x1 := tensor.Randn(rng, 1, 2, 3, 8)
	x2 := tensor.Randn(rng, 1, 2, 3, 8)
	y1, c1 := m.Forward(x1)
	y2, c2 := m.Forward(x2)
	// Backward in reverse order, like a pipeline cooldown.
	dx2 := m.Backward(c2, y2)
	dx1 := m.Backward(c1, y1)
	if dx1.SameShape(dx2) == false {
		t.Fatal("shape mismatch")
	}
	// Cross-check against a fresh un-checkpointed module with equal weights.
	rng2 := tensor.NewRNG(5)
	ref := NewResidualFFNBlock("ffn", 8, 4, rng2)
	refY1, refC1 := ref.Forward(x1)
	refDx1 := ref.Backward(refC1, refY1)
	if d := tensor.MaxAbsDiff(dx1, refDx1); d != 0 {
		t.Errorf("interleaved checkpointed backward differs from reference by %g", d)
	}
	if d := tensor.MaxAbsDiff(y1, refY1); d != 0 {
		t.Errorf("forward differs from reference by %g", d)
	}
}

// TestCheckpointedParamsPassThrough: wrapping must not change the parameter
// set.
func TestCheckpointedParamsPassThrough(t *testing.T) {
	rng := tensor.NewRNG(9)
	inner := NewLinear("lin", 4, 4, 0.1, rng)
	if got, want := len(Checkpoint(inner).Params()), len(inner.Params()); got != want {
		t.Errorf("wrapped params %d, want %d", got, want)
	}
}

// TestCheckpointedDoubleBackwardAccumulates: two backward passes through the
// same weights (different micro-batches) accumulate, exactly like the plain
// module.
func TestCheckpointedDoubleBackwardAccumulates(t *testing.T) {
	rng := tensor.NewRNG(13)
	m := Checkpoint(NewLinear("lin", 3, 3, 0.5, rng))
	x := tensor.Randn(rng, 1, 4, 3)
	y, c := m.Forward(x)
	m.Backward(c, y)
	once := append([]float64(nil), m.Params()[0].Grad.Data...)
	y2, c2 := m.Forward(x)
	m.Backward(c2, y2)
	for i, g := range m.Params()[0].Grad.Data {
		if math.Abs(g-2*once[i]) > 1e-12*(1+math.Abs(g)) {
			t.Fatalf("gradient %d did not accumulate: %v vs 2*%v", i, g, once[i])
		}
	}
}
