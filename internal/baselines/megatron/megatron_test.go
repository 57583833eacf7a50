package megatron

import (
	"math"
	"testing"

	"autopipe/internal/config"
	"autopipe/internal/cost"
	"autopipe/internal/model"
)

func build(t *testing.T, mc config.Model, gran model.Granularity) *model.Blocks {
	t.Helper()
	cl := config.DefaultCluster()
	bl, err := model.Build(mc, cost.Geometry{MicroBatch: 4, Checkpoint: true}, cl.Device, cl.Network, gran)
	if err != nil {
		t.Fatal(err)
	}
	return bl
}

func TestEvenPartitionLayerCounts(t *testing.T) {
	for _, gran := range []model.Granularity{model.SubLayer, model.Layer} {
		bl := build(t, config.GPT2_345M(), gran)
		for _, p := range []int{1, 2, 3, 4, 6, 8, 12, 24} {
			part, err := EvenPartition(bl, p)
			if err != nil {
				t.Fatalf("gran %v p=%d: %v", gran, p, err)
			}
			counts := part.LayerCounts(bl)
			for s, c := range counts {
				if c != float64(24/p) {
					t.Errorf("gran %v p=%d stage %d: %v layers, want %d", gran, p, s, c, 24/p)
				}
			}
			// Embedding with stage 0, head with the last stage.
			if lo, _ := part.Stage(0); lo != 0 {
				t.Errorf("p=%d: stage 0 does not start at the embedding", p)
			}
			if _, hi := part.Stage(p - 1); hi != bl.Len() {
				t.Errorf("p=%d: last stage does not end at the head", p)
			}
		}
	}
}

func TestEvenPartitionRequiresDivisibility(t *testing.T) {
	bl := build(t, config.GPT2_345M(), model.SubLayer)
	for _, p := range []int{5, 7, 9, 16} {
		if _, err := EvenPartition(bl, p); err == nil {
			t.Errorf("p=%d accepted for 24 layers", p)
		}
	}
	if _, err := EvenPartition(bl, 0); err == nil {
		t.Error("p=0 accepted")
	}
	// GPT-2 762M (36 layers) accepts 9 stages — the paper's workaround.
	bl762 := build(t, config.GPT2_762M(), model.SubLayer)
	if _, err := EvenPartition(bl762, 9); err != nil {
		t.Errorf("762M with 9 stages: %v", err)
	}
	if _, err := EvenPartition(bl762, 8); err == nil {
		t.Error("762M with 8 stages accepted (36 layers are not divisible by 8)")
	}
}

func TestInterleavedTimesStructure(t *testing.T) {
	bl := build(t, config.GPT2_345M(), model.SubLayer)
	f, b, part, err := InterleavedTimes(bl, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(f) != 8 || len(b) != 8 || part.Stages() != 8 {
		t.Fatalf("interleaved virt stages = %d, want 8", len(f))
	}
	// Total compute is preserved.
	var totalF, modelF float64
	for _, v := range f {
		totalF += v
	}
	for _, blk := range bl.List {
		modelF += blk.Fwd
	}
	if math.Abs(totalF-modelF) > 1e-9*totalF {
		t.Errorf("virtual forwards sum to %v, model total %v", totalF, modelF)
	}
	// Each virtual stage holds 3 layers.
	for s, c := range part.LayerCounts(bl) {
		if c != 3 {
			t.Errorf("virtual stage %d holds %v layers, want 3", s, c)
		}
	}
}

func TestInterleavedTimesConstraints(t *testing.T) {
	bl := build(t, config.GPT2_345M(), model.SubLayer)
	// 24 layers / 8 stages = 3 per stage: odd, cannot split into 2 chunks —
	// the paper's Fig. 14(b) 'X'.
	if _, _, _, err := InterleavedTimes(bl, 8, 2); err == nil {
		t.Error("8 stages x 2 chunks accepted for 24 layers")
	}
	for _, p := range []int{2, 4, 12} {
		if _, _, _, err := InterleavedTimes(bl, p, 2); err != nil {
			t.Errorf("p=%d x 2 chunks rejected: %v", p, err)
		}
	}
	if _, _, _, err := InterleavedTimes(bl, 5, 2); err == nil {
		t.Error("indivisible depth accepted")
	}
}
