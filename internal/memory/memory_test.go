package memory

import (
	"testing"

	"autopipe/internal/config"
	"autopipe/internal/cost"
	"autopipe/internal/model"
	"autopipe/internal/partition"
)

// pipelineEstimate returns the footprint of every stage.
func pipelineEstimate(bl *model.Blocks, part partition.Partition, m int, sched Schedule, chunks int) []Estimate {
	out := make([]Estimate, part.Stages())
	for s := range out {
		out[s] = StageEstimate(bl, part, s, m, sched, chunks)
	}
	return out
}

// maxEstimate returns the largest per-stage footprint of the pipeline.
func maxEstimate(bl *model.Blocks, part partition.Partition, m int, sched Schedule, chunks int) Estimate {
	var worst Estimate
	for _, e := range pipelineEstimate(bl, part, m, sched, chunks) {
		if e.Total() > worst.Total() {
			worst = e
		}
	}
	return worst
}

func build(t *testing.T, m config.Model, mbs int) *model.Blocks {
	t.Helper()
	cl := config.DefaultCluster()
	bl, err := model.Build(m, cost.Geometry{MicroBatch: mbs, Checkpoint: true}, cl.Device, cl.Network, model.SubLayer)
	if err != nil {
		t.Fatal(err)
	}
	return bl
}

func megatronEven(t *testing.T, bl *model.Blocks, p int) partition.Partition {
	t.Helper()
	// Embedding rides with stage 0, head with the last stage, transformer
	// layers divided evenly.
	L := bl.Model.Layers
	if L%p != 0 {
		t.Fatalf("megatronEven: %d layers not divisible by %d", L, p)
	}
	bounds := make([]int, p+1)
	bounds[0] = 0
	for i := 1; i < p; i++ {
		bounds[i] = 1 + 2*(L/p)*i
	}
	bounds[p] = bl.Len()
	part, err := partition.New(bounds, bl.Len())
	if err != nil {
		t.Fatal(err)
	}
	return part
}

func balanced(t *testing.T, bl *model.Blocks, p int) partition.Partition {
	t.Helper()
	part, err := partition.Balance(bl.Weights(), p)
	if err != nil {
		t.Fatal(err)
	}
	return part
}

// TestPaperMemoryBoundaries pins the feasibility pattern of the paper's
// evaluation: which (model, micro-batch, schedule, depth) combinations fit a
// 24 GB device and which run out of memory. Every row below is asserted in
// the paper (§IV-A/B, Table IV, Fig. 14).
func TestPaperMemoryBoundaries(t *testing.T) {
	dev := config.RTX3090()
	cases := []struct {
		name  string
		model config.Model
		mbs   int
		depth int
		m     int
		sched Schedule
		chunk int
		even  bool // Megatron even partition instead of the balanced DP
		fit   bool
	}{
		// GPT-2 762M (Megatron even partition, as in Fig. 9) OOMs at
		// micro-batch 32 but runs at 24.
		{"762M mbs32 4-stage 1F1B", config.GPT2_762M(), 32, 4, 8, OneFOneB, 1, true, false},
		{"762M mbs24 4-stage 1F1B", config.GPT2_762M(), 24, 4, 8, OneFOneB, 1, true, true},
		// GPT-2 345M runs at micro-batch 32 at depth 4 and depth 2 (Table IV)...
		{"345M mbs32 4-stage 1F1B", config.GPT2_345M(), 32, 4, 8, OneFOneB, 1, true, true},
		{"345M mbs32 2-stage 1F1B", config.GPT2_345M(), 32, 2, 8, OneFOneB, 1, false, true},
		// ...but pure data parallelism (the whole model per GPU) does not fit,
		// which is what makes Table IV the "high memory demand" regime.
		{"345M mbs32 1-stage", config.GPT2_345M(), 32, 1, 8, OneFOneB, 1, false, false},
		// The interleaved schedule OOMs at micro-batch 32 but fits at 16
		// (Fig. 14a).
		{"345M mbs32 interleaved", config.GPT2_345M(), 32, 4, 8, Interleaved, 2, true, false},
		{"345M mbs16 interleaved", config.GPT2_345M(), 16, 4, 8, Interleaved, 2, true, true},
		// GPT-2 1.3B at micro-batch 16: 2-stage pipelines OOM (DAPPLE's
		// failure in Table IV), 4-stage pipelines fit.
		{"1.3B mbs16 2-stage", config.GPT2_1_3B(), 16, 2, 8, OneFOneB, 1, false, false},
		{"1.3B mbs16 4-stage", config.GPT2_1_3B(), 16, 4, 8, OneFOneB, 1, false, true},
		// Low memory demand: GPT-2 345M at micro-batch 4 fits on one GPU
		// (Table III: complete data parallelism is feasible).
		{"345M mbs4 1-stage", config.GPT2_345M(), 4, 1, 8, OneFOneB, 1, false, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bl := build(t, tc.model, tc.mbs)
			var part partition.Partition
			if tc.even {
				part = megatronEven(t, bl, tc.depth)
			} else {
				part = balanced(t, bl, tc.depth)
			}
			ok, worst := Fits(bl, part, tc.m, tc.sched, tc.chunk, dev)
			if ok != tc.fit {
				all := pipelineEstimate(bl, part, tc.m, tc.sched, tc.chunk)
				t.Errorf("Fits = %v, want %v (worst %v)\nall: %v", ok, tc.fit, worst, all)
			}
		})
	}
}

func TestInFlightMicroBatches(t *testing.T) {
	// 1F1B: stage k of depth p keeps min(m, p-k) in flight.
	if got := InFlightMicroBatches(OneFOneB, 4, 0, 8, 1); got != 4 {
		t.Errorf("1F1B stage 0: %v in flight, want 4", got)
	}
	if got := InFlightMicroBatches(OneFOneB, 4, 3, 8, 1); got != 1 {
		t.Errorf("1F1B stage 3: %v in flight, want 1", got)
	}
	if got := InFlightMicroBatches(OneFOneB, 8, 0, 4, 1); got != 4 {
		t.Errorf("1F1B capped by m: %v in flight, want 4", got)
	}
	// GPipe keeps everything.
	if got := InFlightMicroBatches(GPipe, 4, 0, 8, 1); got != 8 {
		t.Errorf("GPipe: %v in flight, want 8", got)
	}
	// Interleaved warms up deeper than 1F1B at every stage.
	for k := 0; k < 4; k++ {
		plain := InFlightMicroBatches(OneFOneB, 4, k, 8, 1)
		inter := InFlightMicroBatches(Interleaved, 4, k, 8, 2)
		if inter <= plain {
			t.Errorf("stage %d: interleaved %v in flight not deeper than 1F1B %v", k, inter, plain)
		}
	}
}

func TestStageEstimateMonotoneInMicroBatch(t *testing.T) {
	// Larger micro-batches can only grow activation footprints.
	for _, mbs := range []int{1, 2, 4, 8, 16} {
		small := build(t, config.GPT2_345M(), mbs)
		large := build(t, config.GPT2_345M(), mbs*2)
		p := balanced(t, small, 4)
		for s := 0; s < 4; s++ {
			a := StageEstimate(small, p, s, 8, OneFOneB, 1)
			b := StageEstimate(large, p, s, 8, OneFOneB, 1)
			if b.Stash < a.Stash || b.PeakAct < a.PeakAct {
				t.Errorf("mbs %d->%d stage %d: footprint shrank: %v -> %v", mbs, mbs*2, s, a, b)
			}
		}
	}
}

func TestDeeperPipelineNeedsLessMemoryPerStage(t *testing.T) {
	bl := build(t, config.GPT2_1_3B(), 16)
	worst2 := maxEstimate(bl, balanced(t, bl, 2), 8, OneFOneB, 1)
	worst4 := maxEstimate(bl, balanced(t, bl, 4), 8, OneFOneB, 1)
	if worst4.Total() >= worst2.Total() {
		t.Errorf("4-stage worst %v not smaller than 2-stage worst %v", worst4.Total(), worst2.Total())
	}
}

func TestEstimateStringHasBreakdown(t *testing.T) {
	bl := build(t, config.GPT2_345M(), 4)
	e := StageEstimate(bl, balanced(t, bl, 4), 0, 8, OneFOneB, 1)
	if s := e.String(); s == "" {
		t.Error("empty breakdown")
	}
	if e.Total() != e.Params+e.Stash+e.PeakAct+e.Overhead {
		t.Error("Total does not sum the parts")
	}
}
