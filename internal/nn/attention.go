package nn

import (
	"fmt"
	"math"

	"autopipe/internal/tensor"
)

// CausalSelfAttention is multi-head self-attention over [B,S,H] inputs,
// masked causally by default (GPT); with Bidirectional set every position
// attends to every other (BERT).
type CausalSelfAttention struct {
	Hidden, Heads  int
	Wq, Wk, Wv, Wo *Linear
	// Bidirectional drops the causal mask (BERT-style encoding).
	Bidirectional bool
}

// NewCausalSelfAttention builds the four projections with a causal mask.
func NewCausalSelfAttention(name string, hidden, heads int, rng *tensor.RNG) *CausalSelfAttention {
	if hidden%heads != 0 {
		panic(fmt.Sprintf("nn: attention %s: %d heads do not divide hidden %d", name, heads, hidden))
	}
	std := 0.02
	return &CausalSelfAttention{
		Hidden: hidden, Heads: heads,
		Wq: NewLinear(name+".q", hidden, hidden, std, rng),
		Wk: NewLinear(name+".k", hidden, hidden, std, rng),
		Wv: NewLinear(name+".v", hidden, hidden, std, rng),
		Wo: NewLinear(name+".o", hidden, hidden, std, rng),
	}
}

// limit returns the last attendable position (inclusive) for query i.
func (a *CausalSelfAttention) limit(i, S int) int {
	if a.Bidirectional {
		return S - 1
	}
	return i
}

type attnCtx struct {
	qCtx, kCtx, vCtx, oCtx Ctx
	q, k, v                *tensor.Tensor // [B,S,H]
	probs                  *tensor.Tensor // [B,heads,S,S]
	b, s                   int
}

// Forward implements Module. x must be [B,S,H].
func (a *CausalSelfAttention) Forward(x *tensor.Tensor) (*tensor.Tensor, Ctx) {
	if len(x.Shape) != 3 || x.Shape[2] != a.Hidden {
		panic(fmt.Sprintf("nn: attention: input shape %v, want [B,S,%d]", x.Shape, a.Hidden))
	}
	B, S := x.Shape[0], x.Shape[1]
	nh := a.Heads
	hd := a.Hidden / nh
	scale := 1 / math.Sqrt(float64(hd))

	q, qc := a.Wq.Forward(x)
	k, kc := a.Wk.Forward(x)
	v, vc := a.Wv.Forward(x)

	probs := tensor.New(B, nh, S, S)
	ctxOut := tensor.New(B, S, a.Hidden)
	at := func(t *tensor.Tensor, b, s, h, d int) float64 {
		return t.Data[(b*S+s)*a.Hidden+h*hd+d]
	}
	for b := 0; b < B; b++ {
		for h := 0; h < nh; h++ {
			for i := 0; i < S; i++ {
				// Position i attends to 0..lim (lim = i when causal).
				lim := a.limit(i, S)
				row := probs.Data[((b*nh+h)*S+i)*S : ((b*nh+h)*S+i)*S+S]
				mx := math.Inf(-1)
				for j := 0; j <= lim; j++ {
					var s64 float64
					for d := 0; d < hd; d++ {
						s64 += at(q, b, i, h, d) * at(k, b, j, h, d)
					}
					row[j] = s64 * scale
					if row[j] > mx {
						mx = row[j]
					}
				}
				var sum float64
				for j := 0; j <= lim; j++ {
					row[j] = math.Exp(row[j] - mx)
					sum += row[j]
				}
				for j := 0; j <= lim; j++ {
					row[j] /= sum
				}
				for d := 0; d < hd; d++ {
					var s64 float64
					for j := 0; j <= lim; j++ {
						s64 += row[j] * at(v, b, j, h, d)
					}
					ctxOut.Data[(b*S+i)*a.Hidden+h*hd+d] = s64
				}
			}
		}
	}
	y, oc := a.Wo.Forward(ctxOut)
	return y, attnCtx{qCtx: qc, kCtx: kc, vCtx: vc, oCtx: oc, q: q, k: k, v: v, probs: probs, b: B, s: S}
}

// Backward implements Module.
func (a *CausalSelfAttention) Backward(ctx Ctx, dy *tensor.Tensor) *tensor.Tensor {
	c := ctx.(attnCtx)
	B, S := c.b, c.s
	nh := a.Heads
	hd := a.Hidden / nh
	scale := 1 / math.Sqrt(float64(hd))

	dCtx := a.Wo.Backward(c.oCtx, dy) // [B,S,H]

	dq := tensor.New(B, S, a.Hidden)
	dk := tensor.New(B, S, a.Hidden)
	dv := tensor.New(B, S, a.Hidden)
	at := func(t *tensor.Tensor, b, s, h, d int) float64 {
		return t.Data[(b*S+s)*a.Hidden+h*hd+d]
	}
	addAt := func(t *tensor.Tensor, b, s, h, d int, v float64) {
		t.Data[(b*S+s)*a.Hidden+h*hd+d] += v
	}
	dp := make([]float64, S)
	for b := 0; b < B; b++ {
		for h := 0; h < nh; h++ {
			for i := 0; i < S; i++ {
				lim := a.limit(i, S)
				row := c.probs.Data[((b*nh+h)*S+i)*S : ((b*nh+h)*S+i)*S+S]
				// dprobs[j] = Σ_d dCtx[i,d] * v[j,d]; dv[j,d] += p[j]*dCtx[i,d].
				for j := 0; j <= lim; j++ {
					var s64 float64
					for d := 0; d < hd; d++ {
						g := dCtx.Data[(b*S+i)*a.Hidden+h*hd+d]
						s64 += g * at(c.v, b, j, h, d)
						addAt(dv, b, j, h, d, row[j]*g)
					}
					dp[j] = s64
				}
				// Softmax backward: ds[j] = p[j]*(dp[j] - Σ dp*p).
				var dot float64
				for j := 0; j <= lim; j++ {
					dot += dp[j] * row[j]
				}
				for j := 0; j <= lim; j++ {
					ds := row[j] * (dp[j] - dot) * scale
					for d := 0; d < hd; d++ {
						addAt(dq, b, i, h, d, ds*at(c.k, b, j, h, d))
						addAt(dk, b, j, h, d, ds*at(c.q, b, i, h, d))
					}
				}
			}
		}
	}
	dx := a.Wq.Backward(c.qCtx, dq)
	dx.AddInPlace(a.Wk.Backward(c.kCtx, dk))
	dx.AddInPlace(a.Wv.Backward(c.vCtx, dv))
	return dx
}

// Params implements Module.
func (a *CausalSelfAttention) Params() []*Param {
	var ps []*Param
	for _, l := range []*Linear{a.Wq, a.Wk, a.Wv, a.Wo} {
		ps = append(ps, l.Params()...)
	}
	return ps
}
