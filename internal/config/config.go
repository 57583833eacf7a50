// Package config defines the model, hardware, and run configurations that
// parameterize every other package in the repository.
//
// A config plays the role of the paper's "model configs": the statistics that
// AutoPipe collects offline (model architecture, micro-batch geometry, and
// device/network characteristics) before planning begins.
package config

import (
	"encoding/json"
	"fmt"
	"os"

	"autopipe/internal/errdefs"
)

// Model describes a transformer-based benchmark model (paper Table I).
type Model struct {
	// Name is a human-readable identifier, e.g. "GPT-2 345M".
	Name string `json:"name"`
	// Layers is the number of transformer layers.
	Layers int `json:"layers"`
	// Hidden is the hidden (residual stream) dimension.
	Hidden int `json:"hidden"`
	// Heads is the number of attention heads.
	Heads int `json:"heads"`
	// FFNMult is the FFN expansion factor (intermediate = FFNMult * Hidden).
	FFNMult int `json:"ffn_mult"`
	// SeqLen is the training sequence length.
	SeqLen int `json:"seq_len"`
	// Vocab is the vocabulary size.
	Vocab int `json:"vocab"`
	// TiedHead reports whether the output projection shares the input
	// embedding weights (GPT-2 style). A tied head adds compute to the last
	// stage but no extra parameters.
	TiedHead bool `json:"tied_head"`
	// Pooler reports whether the model carries a BERT-style pooler/MLM head.
	Pooler bool `json:"pooler"`
}

// Validate reports the first structural problem with the model config.
// Errors wrap errdefs.ErrBadConfig.
func (m *Model) Validate() error {
	switch {
	case m.Layers <= 0:
		return fmt.Errorf("%w: model %q: layers must be positive, got %d", errdefs.ErrBadConfig, m.Name, m.Layers)
	case m.Hidden <= 0:
		return fmt.Errorf("%w: model %q: hidden must be positive, got %d", errdefs.ErrBadConfig, m.Name, m.Hidden)
	case m.Heads <= 0 || m.Hidden%m.Heads != 0:
		return fmt.Errorf("%w: model %q: heads must divide hidden (%d heads, %d hidden)", errdefs.ErrBadConfig, m.Name, m.Heads, m.Hidden)
	case m.FFNMult <= 0:
		return fmt.Errorf("%w: model %q: ffn_mult must be positive, got %d", errdefs.ErrBadConfig, m.Name, m.FFNMult)
	case m.SeqLen <= 0:
		return fmt.Errorf("%w: model %q: seq_len must be positive, got %d", errdefs.ErrBadConfig, m.Name, m.SeqLen)
	case m.Vocab <= 0:
		return fmt.Errorf("%w: model %q: vocab must be positive, got %d", errdefs.ErrBadConfig, m.Name, m.Vocab)
	}
	return nil
}

// Device describes a single accelerator (paper testbed: NVIDIA RTX 3090).
type Device struct {
	Name string `json:"name"`
	// FlopsPerSec is the sustained mixed-precision matmul throughput in FLOP/s.
	FlopsPerSec float64 `json:"flops_per_sec"`
	// MemBandwidth is the sustained device-memory bandwidth in bytes/s; it
	// bounds memory-bound blocks such as embedding lookups.
	MemBandwidth float64 `json:"mem_bandwidth"`
	// MemoryBytes is the device memory capacity in bytes.
	MemoryBytes int64 `json:"memory_bytes"`
	// KernelOverhead is the fixed per-operation launch cost in seconds. The
	// planner's analytic simulator ignores it; the discrete-event executor
	// charges it, which produces the stable simulator-vs-actual bias the
	// paper reports in Fig. 11.
	KernelOverhead float64 `json:"kernel_overhead"`
}

// Network describes the point-to-point interconnect (paper: 100 Gb/s IB).
type Network struct {
	// Bandwidth is the effective unidirectional bandwidth in bytes/s. Links
	// are full duplex: the paper observes bidirectional communication costs
	// the same as unidirectional because stage-to-stage volumes are small.
	Bandwidth float64 `json:"bandwidth"`
	// Latency is the per-message latency in seconds.
	Latency float64 `json:"latency"`
}

// Cluster bundles the hardware configuration.
type Cluster struct {
	Device  Device  `json:"device"`
	Network Network `json:"network"`
	// NumGPUs is the total accelerator count available to a planner.
	NumGPUs int `json:"num_gpus"`
}

// Run describes one training configuration to plan or execute.
type Run struct {
	// MicroBatch is the micro-batch size (paper: Mbs).
	MicroBatch int `json:"micro_batch"`
	// GlobalBatch is the global batch size (paper: Gbs); zero means the
	// micro-batch count is given directly via NumMicro.
	GlobalBatch int `json:"global_batch"`
	// NumMicro is the number of micro-batches per iteration when GlobalBatch
	// is zero.
	NumMicro int `json:"num_micro"`
	// Checkpoint enables activation checkpointing (paper uses it everywhere
	// to avoid OOM; backward then re-executes the forward pass first).
	Checkpoint bool `json:"checkpoint"`
}

// MicroBatches returns the number of micro-batches per iteration for a given
// data-parallel degree. With a global batch size the count is
// GlobalBatch/(MicroBatch*dp), as in Megatron-LM's gradient accumulation.
func (r Run) MicroBatches(dataParallel int) int {
	if r.GlobalBatch == 0 {
		return r.NumMicro
	}
	if dataParallel <= 0 {
		dataParallel = 1
	}
	m := r.GlobalBatch / (r.MicroBatch * dataParallel)
	if m < 1 {
		m = 1
	}
	return m
}

// Validate reports the first structural problem with the run config: a
// non-positive micro-batch, a negative global batch, a missing batch spec, or
// a global batch the micro-batch does not divide. Errors wrap
// errdefs.ErrBadConfig, so planners reject invalid runs up front instead of
// failing deep inside the partitioner.
func (r Run) Validate() error {
	if r.MicroBatch <= 0 {
		return fmt.Errorf("%w: run: micro_batch must be positive, got %d", errdefs.ErrBadConfig, r.MicroBatch)
	}
	if r.GlobalBatch < 0 {
		return fmt.Errorf("%w: run: global_batch must be non-negative, got %d", errdefs.ErrBadConfig, r.GlobalBatch)
	}
	if r.GlobalBatch == 0 && r.NumMicro <= 0 {
		return fmt.Errorf("%w: run: need global_batch or num_micro", errdefs.ErrBadConfig)
	}
	if r.GlobalBatch != 0 && r.GlobalBatch%r.MicroBatch != 0 {
		return fmt.Errorf("%w: run: global_batch %d not divisible by micro_batch %d",
			errdefs.ErrBadConfig, r.GlobalBatch, r.MicroBatch)
	}
	return nil
}

// RTX3090 returns the device profile used throughout the reproduction:
// ~35 TFLOP/s peak mixed-precision tensor throughput (per-block efficiency
// factors in package cost derate it), ~700 GB/s sustained HBM bandwidth,
// 24 GB memory.
func RTX3090() Device {
	return Device{
		Name:         "RTX3090",
		FlopsPerSec:  35e12,
		MemBandwidth: 700e9,
		MemoryBytes:  24 << 30,
		// A pipeline-stage forward or backward launches hundreds of CUDA
		// kernels plus framework dispatch; ~1 ms of it does not overlap
		// with compute. The planner's analytic simulator ignores this,
		// which is the stable simulator-vs-actual bias of Fig. 11.
		KernelOverhead: 1e-3,
	}
}

// InfiniBand100 returns the 100 Gb/s InfiniBand network profile of the paper
// testbed, derated to ~80% achievable bandwidth.
func InfiniBand100() Network {
	return Network{
		Bandwidth: 10e9,
		Latency:   15e-6,
	}
}

// DefaultCluster returns the paper's 16-GPU testbed profile.
func DefaultCluster() Cluster {
	return Cluster{Device: RTX3090(), Network: InfiniBand100(), NumGPUs: 16}
}

// Save writes v as indented JSON to path.
func Save(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("config: %w", err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
