// Package memory estimates per-device memory footprints of pipeline
// configurations and detects out-of-memory conditions.
//
// The model follows Megatron-LM mixed-precision training with activation
// checkpointing (the paper enables checkpointing in all experiments): fp16
// parameters, fp32 gradient accumulation, fp32 Adam states, one stashed
// input activation per block per in-flight micro-batch, plus the transient
// working set of re-computing the largest block during backward.
package memory

import (
	"fmt"

	"autopipe/internal/config"
	"autopipe/internal/model"
	"autopipe/internal/partition"
)

// Bytes per parameter under Megatron-style mixed precision:
// fp16 weight (2) + fp16 gradient buffer (2) + fp32 main gradient (4) +
// fp32 master weight (4) + fp32 Adam first and second moments (4+4) +
// fp32 all-reduce staging copy (4).
const BytesPerParam = 24

// FrameworkOverhead approximates the CUDA context, NCCL workspace, cudnn
// handles, and allocator slack a real device loses before the first tensor.
const FrameworkOverhead = int64(9) << 28 // 2.25 GiB

// Schedule identifies the pipeline schedule whose in-flight micro-batch
// count governs activation stash memory.
type Schedule int

const (
	// OneFOneB is the default Megatron/PipeDream-flush schedule: stage k of
	// a depth-p pipeline keeps min(m, p-k) micro-batches in flight.
	OneFOneB Schedule = iota
	// GPipe keeps all m micro-batches in flight on every stage.
	GPipe
	// Interleaved is Megatron's interleaved 1F1B with v model chunks per
	// device; it warms up deeper and therefore stashes more activations,
	// which is why the paper's Fig. 14(a) shows it running out of memory at
	// large micro-batch sizes.
	Interleaved
)

// Estimate is a per-device memory breakdown in bytes.
type Estimate struct {
	Params     int64
	Stash      int64
	PeakAct    int64
	Overhead   int64
	InFlight   float64
	StageIndex int
}

// Total returns the whole-device footprint.
func (e Estimate) Total() int64 {
	return e.Params + e.Stash + e.PeakAct + e.Overhead
}

// String renders the breakdown in GiB.
func (e Estimate) String() string {
	gib := func(b int64) float64 { return float64(b) / float64(1<<30) }
	return fmt.Sprintf("stage %d: params %.2f GiB, stash %.2f GiB (%.1f in flight), peak act %.2f GiB, overhead %.2f GiB, total %.2f GiB",
		e.StageIndex, gib(e.Params), gib(e.Stash), e.InFlight, gib(e.PeakAct), gib(e.Overhead), gib(e.Total()))
}

// InFlightMicroBatches returns the number of micro-batches whose stashed
// activations stage k of a depth-p pipeline holds simultaneously.
func InFlightMicroBatches(sched Schedule, p, k, m, chunks int) float64 {
	switch sched {
	case GPipe:
		return float64(m)
	case Interleaved:
		if chunks < 1 {
			chunks = 1
		}
		// Megatron interleaved warm-up depth: 2(p-k-1) + (v-1)p forwards
		// before the first backward, plus the one being computed. Each
		// in-flight micro-batch stashes activations for one chunk (1/v of
		// the device's blocks), so normalize to full-device units.
		warm := 2*(p-k-1) + (chunks-1)*p + 1
		if warm > m*chunks {
			warm = m * chunks
		}
		return float64(warm) / float64(chunks)
	default:
		inflight := p - k
		if inflight > m {
			inflight = m
		}
		if inflight < 1 {
			inflight = 1
		}
		return float64(inflight)
	}
}

// StageEstimate computes the memory footprint of one pipeline stage.
func StageEstimate(bl *model.Blocks, part partition.Partition, stage, m int, sched Schedule, chunks int) Estimate {
	lo, hi := part.Stage(stage)
	var params, stash, peak int64
	var outBytes int64
	for _, b := range bl.List[lo:hi] {
		params += b.Params
		stash += b.ActStash
		if b.ActPeak > peak {
			peak = b.ActPeak
		}
		outBytes = b.OutBytes
	}
	inflight := InFlightMicroBatches(sched, part.Stages(), stage, m, chunks)
	overhead := FrameworkOverhead
	if sched == Interleaved {
		// Interleaving multiplies the communication streams: each chunk
		// boundary pins double-buffered send and receive tensors (×4) for
		// every warmed-up micro-batch until the downstream device, busy
		// with another chunk, drains them. This is the extra footprint that
		// makes the interleaved schedule OOM at large micro-batch sizes in
		// the paper's Fig. 14(a).
		raw := 2*(part.Stages()-stage-1) + (chunks-1)*part.Stages() + 1
		if raw > m*chunks {
			raw = m * chunks
		}
		overhead += int64(raw) * 4 * outBytes * int64(chunks)
	}
	return Estimate{
		Params:     params * BytesPerParam,
		Stash:      int64(float64(stash) * inflight),
		PeakAct:    peak,
		Overhead:   overhead,
		InFlight:   inflight,
		StageIndex: stage,
	}
}

// Fits reports whether every stage of the pipeline fits in the device
// memory, and if not, the first offending stage.
func Fits(bl *model.Blocks, part partition.Partition, m int, sched Schedule, chunks int, dev config.Device) (bool, Estimate) {
	for s := 0; s < part.Stages(); s++ {
		e := StageEstimate(bl, part, s, m, sched, chunks)
		if e.Total() > dev.MemoryBytes {
			return false, e
		}
	}
	return true, Estimate{}
}
