package nn

import (
	"math"
	"testing"

	"autopipe/internal/tensor"
)

// numGrad estimates d(loss)/d(w) by central differences for one weight.
func numGrad(f func() float64, w *float64) float64 {
	const h = 1e-6
	old := *w
	*w = old + h
	lp := f()
	*w = old - h
	lm := f()
	*w = old
	return (lp - lm) / (2 * h)
}

// checkModuleGrads verifies a module's analytic gradients (parameters and
// input) against finite differences on a scalar loss Σ y² / 2.
func checkModuleGrads(t *testing.T, m Module, x *tensor.Tensor, tol float64) {
	t.Helper()
	lossOf := func() float64 {
		y, _ := m.Forward(x)
		var l float64
		for _, v := range y.Data {
			l += v * v / 2
		}
		return l
	}
	// Analytic pass.
	y, ctx := m.Forward(x)
	dy := y.Clone() // d(Σy²/2)/dy = y
	for _, p := range m.Params() {
		p.Grad.Zero()
	}
	dx := m.Backward(ctx, dy)

	for _, p := range m.Params() {
		for i := 0; i < len(p.W.Data); i += 1 + len(p.W.Data)/17 { // sample weights
			want := numGrad(lossOf, &p.W.Data[i])
			got := p.Grad.Data[i]
			if math.Abs(want-got) > tol*(1+math.Abs(want)) {
				t.Errorf("%s grad[%d] = %g, finite diff %g", p.Name, i, got, want)
			}
		}
	}
	if dx != nil {
		for i := 0; i < len(x.Data); i += 1 + len(x.Data)/17 {
			want := numGrad(lossOf, &x.Data[i])
			got := dx.Data[i]
			if math.Abs(want-got) > tol*(1+math.Abs(want)) {
				t.Errorf("input grad[%d] = %g, finite diff %g", i, got, want)
			}
		}
	}
}

func TestLinearGradients(t *testing.T) {
	rng := tensor.NewRNG(1)
	l := NewLinear("lin", 5, 3, 0.5, rng)
	checkModuleGrads(t, l, tensor.Randn(rng, 1, 4, 5), 1e-6)
}

func TestLinearNoBias(t *testing.T) {
	rng := tensor.NewRNG(2)
	l := NewLinear("lin", 4, 4, 0.5, rng)
	l.NoBias = true
	if len(l.Params()) != 1 {
		t.Fatalf("NoBias linear has %d params, want 1", len(l.Params()))
	}
	checkModuleGrads(t, l, tensor.Randn(rng, 1, 3, 4), 1e-6)
}

func TestLayerNormGradients(t *testing.T) {
	rng := tensor.NewRNG(3)
	ln := NewLayerNorm("ln", 6)
	// Non-trivial gain/bias so their gradients are exercised.
	for i := range ln.G.W.Data {
		ln.G.W.Data[i] = 1 + 0.1*float64(i)
		ln.B.W.Data[i] = 0.05 * float64(i)
	}
	checkModuleGrads(t, ln, tensor.Randn(rng, 1, 7, 6), 1e-5)
}

func TestGELUGradients(t *testing.T) {
	rng := tensor.NewRNG(4)
	checkModuleGrads(t, GELU{}, tensor.Randn(rng, 1, 11, 3), 1e-6)
}

func TestAttentionGradients(t *testing.T) {
	rng := tensor.NewRNG(5)
	a := NewCausalSelfAttention("attn", 8, 2, rng)
	// Larger init so gradients are well away from zero.
	for _, p := range a.Params() {
		p.W.ScaleInPlace(10)
	}
	checkModuleGrads(t, a, tensor.Randn(rng, 1, 2, 4, 8), 1e-4)
}

func TestAttentionIsCausal(t *testing.T) {
	rng := tensor.NewRNG(6)
	a := NewCausalSelfAttention("attn", 8, 2, rng)
	x := tensor.Randn(rng, 1, 1, 5, 8)
	y1, _ := a.Forward(x)
	// Perturb the last position; earlier outputs must not change.
	x2 := x.Clone()
	for d := 0; d < 8; d++ {
		x2.Data[4*8+d] += 3
	}
	y2, _ := a.Forward(x2)
	for i := 0; i < 4*8; i++ {
		if y1.Data[i] != y2.Data[i] {
			t.Fatalf("future token leaked into position %d", i/8)
		}
	}
	// And the last position must change.
	changed := false
	for d := 0; d < 8; d++ {
		if y1.Data[4*8+d] != y2.Data[4*8+d] {
			changed = true
		}
	}
	if !changed {
		t.Error("perturbing the last token had no effect on its own output")
	}
}

func TestResidualBlockGradients(t *testing.T) {
	rng := tensor.NewRNG(7)
	ra := NewResidualAttentionBlock("ra", 8, 2, rng)
	checkModuleGrads(t, ra, tensor.Randn(rng, 1, 2, 3, 8), 1e-5)
	rf := NewResidualFFNBlock("rf", 8, 4, rng)
	checkModuleGrads(t, rf, tensor.Randn(rng, 1, 2, 3, 8), 1e-5)
}

func TestEmbeddingGradients(t *testing.T) {
	rng := tensor.NewRNG(8)
	e := NewEmbedding("emb", 11, 6, 8, rng)
	ids := tensor.FromSlice([]float64{1, 3, 3, 7, 0, 10, 2, 2, 5, 4, 9, 6}, 2, 6)
	lossOf := func() float64 {
		y, _ := e.Forward(ids)
		var l float64
		for _, v := range y.Data {
			l += v * v / 2
		}
		return l
	}
	y, ctx := e.Forward(ids)
	for _, p := range e.Params() {
		p.Grad.Zero()
	}
	if dx := e.Backward(ctx, y.Clone()); dx != nil {
		t.Error("embedding backward returned a gradient for integer ids")
	}
	// Token 3 appears twice; its gradient must be the accumulated sum.
	for i := 0; i < 8; i += 3 {
		idx := 3*8 + i
		want := numGrad(lossOf, &e.Tok.W.Data[idx])
		got := e.Tok.Grad.Data[idx]
		if math.Abs(want-got) > 1e-5*(1+math.Abs(want)) {
			t.Errorf("token grad[%d] = %g, finite diff %g", idx, got, want)
		}
	}
	for i := 0; i < 8; i += 3 {
		idx := 2*8 + i // position 2
		want := numGrad(lossOf, &e.Pos.W.Data[idx])
		got := e.Pos.Grad.Data[idx]
		if math.Abs(want-got) > 1e-5*(1+math.Abs(want)) {
			t.Errorf("pos grad[%d] = %g, finite diff %g", idx, got, want)
		}
	}
}

func TestCrossEntropyGradients(t *testing.T) {
	rng := tensor.NewRNG(9)
	logits := tensor.Randn(rng, 1, 2, 3, 5)
	targets := tensor.FromSlice([]float64{0, 4, 2, 1, 3, 0}, 2, 3)
	lossOf := func() float64 {
		l, _ := CrossEntropy(logits, targets)
		return l
	}
	_, d := CrossEntropy(logits, targets)
	for i := range logits.Data {
		want := numGrad(lossOf, &logits.Data[i])
		if math.Abs(want-d.Data[i]) > 1e-6*(1+math.Abs(want)) {
			t.Errorf("dlogits[%d] = %g, finite diff %g", i, d.Data[i], want)
		}
	}
	// Gradient rows sum to zero (softmax minus one-hot).
	rows, v := d.Rows()
	for r := 0; r < rows; r++ {
		var s float64
		for j := 0; j < v; j++ {
			s += d.Data[r*v+j]
		}
		if math.Abs(s) > 1e-12 {
			t.Errorf("row %d gradient sums to %g", r, s)
		}
	}
}

func TestGPTEndToEndGradient(t *testing.T) {
	cfg := TinyGPT()
	mods := BuildGPT(cfg)
	rng := tensor.NewRNG(11)
	B, S := 2, 5
	in := tensor.New(B, S)
	tg := tensor.New(B, S)
	for i := range in.Data {
		in.Data[i] = float64(rng.Intn(cfg.Vocab))
		tg.Data[i] = float64(rng.Intn(cfg.Vocab))
	}
	lossOf := func() float64 {
		y, _ := ForwardAll(mods, in)
		l, _ := CrossEntropy(y, tg)
		return l
	}
	y, ctxs := ForwardAll(mods, in)
	_, dLogits := CrossEntropy(y, tg)
	ZeroGrads(CollectParams(mods))
	BackwardAll(mods, ctxs, dLogits)

	// Spot-check a few parameters per module.
	for _, p := range CollectParams(mods) {
		step := 1 + len(p.W.Data)/3
		for i := 0; i < len(p.W.Data); i += step {
			want := numGrad(lossOf, &p.W.Data[i])
			got := p.Grad.Data[i]
			if math.Abs(want-got) > 1e-4*(1+math.Abs(want)) {
				t.Errorf("%s grad[%d] = %g, finite diff %g", p.Name, i, got, want)
			}
		}
	}
}

func TestBuildGPTStructure(t *testing.T) {
	cfg := TinyGPT()
	mods := BuildGPT(cfg)
	if want := 2 + 2*cfg.Layers; len(mods) != want {
		t.Fatalf("BuildGPT produced %d modules, want %d", len(mods), want)
	}
	if _, ok := mods[0].(*Embedding); !ok {
		t.Error("first module is not the embedding")
	}
	if _, ok := mods[len(mods)-1].(*LMHead); !ok {
		t.Error("last module is not the head")
	}
	for i := 1; i < len(mods)-1; i += 2 {
		if _, ok := mods[i].(*ResidualAttentionBlock); !ok {
			t.Errorf("module %d is not an attention sub-block", i)
		}
		if _, ok := mods[i+1].(*ResidualFFNBlock); !ok {
			t.Errorf("module %d is not an FFN sub-block", i+1)
		}
	}
}

func TestBidirectionalAttention(t *testing.T) {
	rng := tensor.NewRNG(31)
	a := NewCausalSelfAttention("attn", 8, 2, rng)
	a.Bidirectional = true
	for _, p := range a.Params() {
		p.W.ScaleInPlace(10)
	}
	checkModuleGrads(t, a, tensor.Randn(rng, 1, 2, 4, 8), 1e-4)

	// Unlike the causal variant, perturbing the last token changes earlier
	// positions' outputs.
	x := tensor.Randn(rng, 1, 1, 5, 8)
	y1, _ := a.Forward(x)
	x2 := x.Clone()
	for d := 0; d < 8; d++ {
		x2.Data[4*8+d] += 3
	}
	y2, _ := a.Forward(x2)
	changed := false
	for i := 0; i < 4*8; i++ {
		if y1.Data[i] != y2.Data[i] {
			changed = true
			break
		}
	}
	if !changed {
		t.Error("bidirectional attention did not propagate the future token backward")
	}
}
