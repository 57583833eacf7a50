package train

import (
	"fmt"

	"autopipe/internal/errdefs"
	"autopipe/internal/nn"
	"autopipe/internal/tensor"
)

// Batch is one micro-batch of token ids: Inputs and Targets are [B,S]
// integer tensors (targets are the next-token labels).
type Batch struct {
	Inputs, Targets *tensor.Tensor
}

// Split halves the micro-batch along the batch axis (for sliced warmup
// forwards). The batch size must be even.
func (b Batch) Split() (Batch, Batch, error) {
	if b.Inputs.Shape[0]%2 != 0 {
		return Batch{}, Batch{}, fmt.Errorf("%w: train: cannot slice micro-batch of odd size %d", errdefs.ErrBadConfig, b.Inputs.Shape[0])
	}
	half := b.Inputs.Shape[0] / 2
	ia, ib := b.Inputs.SplitRows(half)
	ta, tb := b.Targets.SplitRows(half)
	return Batch{ia, ta}, Batch{ib, tb}, nil
}

// SerialStep runs one gradient-accumulation iteration on a single "device":
// forward+backward for every micro-batch, gradients accumulated in place.
// scale multiplies the summed cross-entropy (1/(micros*B*S) gives the mean
// loss). It is the reference the pipeline runtime is checked against.
func SerialStep(mods []nn.Module, micros []Batch, scale float64) (loss float64) {
	for _, mb := range micros {
		logits, ctxs := nn.ForwardAll(mods, mb.Inputs)
		l, dLogits := nn.CrossEntropy(logits, mb.Targets)
		loss += l * scale
		dLogits.ScaleInPlace(scale)
		nn.BackwardAll(mods, ctxs, dLogits)
	}
	return loss
}

// Dataset generates a deterministic synthetic corpus: sequences from a fixed
// random Markov table, so next-token prediction is learnable by a tiny GPT.
type Dataset struct {
	vocab, seq int
	table      []int
	rng        *tensor.RNG
}

// NewDataset builds a corpus generator.
func NewDataset(vocab, seq int, seed uint64) *Dataset {
	rng := tensor.NewRNG(seed)
	table := make([]int, vocab)
	for i := range table {
		table[i] = rng.Intn(vocab)
	}
	return &Dataset{vocab: vocab, seq: seq, table: table, rng: rng}
}

// Batch samples a [batch, seq] pair of inputs and next-token targets.
func (d *Dataset) Batch(batch int) Batch {
	in := tensor.New(batch, d.seq)
	tg := tensor.New(batch, d.seq)
	for b := 0; b < batch; b++ {
		tok := d.rng.Intn(d.vocab)
		for s := 0; s < d.seq; s++ {
			in.Data[b*d.seq+s] = float64(tok)
			// Mostly-deterministic transitions with occasional noise keep
			// the task learnable but not trivial.
			next := d.table[tok]
			if d.rng.Float64() < 0.05 {
				next = d.rng.Intn(d.vocab)
			}
			tg.Data[b*d.seq+s] = float64(next)
			tok = next
		}
	}
	return Batch{Inputs: in, Targets: tg}
}

// Micros samples m micro-batches.
func (d *Dataset) Micros(m, batch int) []Batch {
	out := make([]Batch, m)
	for i := range out {
		out[i] = d.Batch(batch)
	}
	return out
}
