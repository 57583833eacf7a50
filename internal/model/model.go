// Package model turns a transformer config into the array of sub-layer
// blocks that AutoPipe plans over.
//
// Sub-layer granularity (paper Fig. 3): each transformer layer is split into
// a ResidualAttentionBlock and a ResidualFFNBlock. Both sub-blocks emit the
// same residual-stream tensor, so a pipeline cut between them moves exactly
// as many bytes as a cut between layers — finer planning granularity at zero
// extra communication cost.
package model

import (
	"fmt"
	"strings"

	"autopipe/internal/config"
	"autopipe/internal/cost"
	"autopipe/internal/errdefs"
)

// Block is one schedulable unit of the model with resolved wall times.
type Block struct {
	cost.BlockCost
	// Index is the position of the block in the model's block array.
	Index int
	// Fwd and Bwd are the forward and backward wall times in seconds on the
	// profile the block array was built against. Bwd includes the
	// checkpointing recompute when the geometry enables it.
	Fwd float64
	Bwd float64
}

// Weight returns the block's total compute weight f+b, the quantity
// Algorithm 1 balances across stages.
func (b Block) Weight() float64 { return b.Fwd + b.Bwd }

// LayerFraction returns the block's size in transformer-layer units: 0.5 for
// an attention or FFN sub-block, 0 for embedding/head. Paper Table II reports
// partitions in these units.
func (b Block) LayerFraction() float64 {
	switch b.Kind {
	case cost.KindAttention, cost.KindFFN:
		return 0.5
	case cost.KindLayer:
		return 1
	default:
		return 0
	}
}

// Blocks is a model lowered to a block array on a concrete device profile.
type Blocks struct {
	Model   config.Model
	Geom    cost.Geometry
	Device  config.Device
	Network config.Network
	List    []Block
	// Comm is the paper's single communication constant: the time to move
	// one residual-stream activation between adjacent stages.
	Comm float64
}

// Granularity selects how finely transformer layers are decomposed.
type Granularity int

const (
	// SubLayer splits every transformer layer into attention and FFN blocks
	// (AutoPipe's planning granularity).
	SubLayer Granularity = iota
	// Layer keeps whole transformer layers (the granularity of prior
	// planners; used by the baselines and the granularity ablation).
	Layer
)

// Build lowers m to a block array at the given granularity.
func Build(m config.Model, g cost.Geometry, dev config.Device, net config.Network, gran Granularity) (*Blocks, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if g.MicroBatch <= 0 {
		return nil, fmt.Errorf("%w: model: micro-batch must be positive, got %d", errdefs.ErrBadConfig, g.MicroBatch)
	}
	if g.SeqLen == 0 {
		g.SeqLen = m.SeqLen
	}
	perLayer := 2
	if gran == Layer {
		perLayer = 1
	}
	bl := &Blocks{Model: m, Geom: g, Device: dev, Network: net, List: make([]Block, 0, perLayer*m.Layers+2)}
	add := func(c cost.BlockCost) {
		bl.List = append(bl.List, Block{
			BlockCost: c,
			Index:     len(bl.List),
			Fwd:       c.FwdTime(dev),
			Bwd:       c.BwdTime(dev, g.Checkpoint),
		})
	}
	add(cost.Embedding(m, g))
	for l := 0; l < m.Layers; l++ {
		attn := cost.Attention(m, g, l)
		ffn := cost.FFN(m, g, l)
		if gran == Layer {
			add(mergeLayer(attn, ffn, l))
			continue
		}
		add(attn)
		add(ffn)
	}
	add(cost.Head(m, g))
	bl.Comm = cost.CommTime(bl.List[0].OutBytes, net)
	return bl, nil
}

// mergeLayer fuses an attention and FFN sub-block into one layer block. The
// merged efficiency is the harmonic combination that preserves total compute
// time: eff = ΣFLOPs / Σ(FLOPs_i / eff_i).
func mergeLayer(a, f cost.BlockCost, layer int) cost.BlockCost {
	fwd := a.FwdFlops + f.FwdFlops
	eff := fwd.Float() / (a.FwdFlops.Float()/a.Efficiency + f.FwdFlops.Float()/f.Efficiency)
	return cost.BlockCost{
		Kind:       cost.KindLayer,
		Layer:      layer,
		Efficiency: eff,
		FwdFlops:   a.FwdFlops + f.FwdFlops,
		BwdFlops:   a.BwdFlops + f.BwdFlops,
		FwdBytes:   a.FwdBytes + f.FwdBytes,
		BwdBytes:   a.BwdBytes + f.BwdBytes,
		Params:     a.Params + f.Params,
		ActStash:   a.ActStash + f.ActStash,
		ActPeak:    maxInt64(a.ActPeak, f.ActPeak),
		OutBytes:   f.OutBytes,
	}
}

func maxInt64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// Len returns the number of blocks.
func (bl *Blocks) Len() int { return len(bl.List) }

// Granularity reports whether bl was built at layer or sub-layer
// granularity.
func (bl *Blocks) Granularity() Granularity {
	if len(bl.List) == bl.Model.Layers+2 {
		return Layer
	}
	return SubLayer
}

// Rebuild returns a block array for the same model and granularity at a
// different micro-batch size.
func (bl *Blocks) Rebuild(microBatch int) (*Blocks, error) {
	geom := bl.Geom
	geom.MicroBatch = microBatch
	return Build(bl.Model, geom, bl.Device, bl.Network, bl.Granularity())
}

// Weights returns the f+b weight of every block, the input to Algorithm 1.
func (bl *Blocks) Weights() []float64 {
	w := make([]float64, len(bl.List))
	for i, b := range bl.List {
		w[i] = b.Weight()
	}
	return w
}

// TotalParams returns the model's parameter count. With a tied head the
// shared table is counted once, matching paper Table I.
func (bl *Blocks) TotalParams() int64 {
	var p int64
	for _, b := range bl.List {
		p += b.Params
	}
	return p
}

// String renders a compact description of the block array.
func (bl *Blocks) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s: %d blocks, %.1fM params, comm %.3fms",
		bl.Model.Name, len(bl.List), float64(bl.TotalParams())/1e6, bl.Comm*1e3)
	return sb.String()
}
