package model

import (
	"math"
	"testing"

	"autopipe/internal/config"
	"autopipe/internal/cost"
)

func build(t *testing.T, mc config.Model, gran Granularity) *Blocks {
	t.Helper()
	cl := config.DefaultCluster()
	bl, err := Build(mc, cost.Geometry{MicroBatch: 4, Checkpoint: true}, cl.Device, cl.Network, gran)
	if err != nil {
		t.Fatal(err)
	}
	return bl
}

func TestBuildSubLayerStructure(t *testing.T) {
	bl := build(t, config.GPT2_345M(), SubLayer)
	if want := 2 + 2*24; bl.Len() != want {
		t.Fatalf("sub-layer blocks = %d, want %d", bl.Len(), want)
	}
	if bl.List[0].Kind != cost.KindEmbedding {
		t.Error("first block is not the embedding")
	}
	if bl.List[bl.Len()-1].Kind != cost.KindHead {
		t.Error("last block is not the head")
	}
	for i := 1; i < bl.Len()-1; i++ {
		want := cost.KindAttention
		if i%2 == 0 {
			want = cost.KindFFN
		}
		if bl.List[i].Kind != want {
			t.Errorf("block %d is %v, want %v", i, bl.List[i].Kind, want)
		}
		if bl.List[i].Layer != (i-1)/2 {
			t.Errorf("block %d belongs to layer %d, want %d", i, bl.List[i].Layer, (i-1)/2)
		}
	}
	if bl.Granularity() != SubLayer {
		t.Error("granularity misreported")
	}
}

func TestBuildLayerGranularityPreservesTotals(t *testing.T) {
	sub := build(t, config.GPT2_345M(), SubLayer)
	layer := build(t, config.GPT2_345M(), Layer)
	if want := 24 + 2; layer.Len() != want {
		t.Fatalf("layer blocks = %d, want %d", layer.Len(), want)
	}
	if layer.Granularity() != Layer {
		t.Error("granularity misreported")
	}
	if sub.TotalParams() != layer.TotalParams() {
		t.Errorf("params differ across granularity: %d vs %d", sub.TotalParams(), layer.TotalParams())
	}
	// Merging must preserve compute time (harmonic efficiency combination).
	if d := math.Abs(totalFwd(sub) - totalFwd(layer)); d > 1e-9*totalFwd(sub) {
		t.Errorf("forward time differs across granularity by %g", d)
	}
	// And the comm constant is identical (same residual stream).
	if sub.Comm != layer.Comm {
		t.Errorf("comm differs: %g vs %g", sub.Comm, layer.Comm)
	}
}

func TestTotalParamsMatchTable1(t *testing.T) {
	for _, tc := range []struct {
		mc   config.Model
		want float64 // millions, generous band
		tol  float64
	}{
		{config.GPT2_345M(), 345, 0.06},
		{config.GPT2_762M(), 762, 0.06},
		{config.GPT2_1_3B(), 1314, 0.04},
		{config.BERTLarge(), 340, 0.06},
	} {
		bl := build(t, tc.mc, SubLayer)
		got := float64(bl.TotalParams()) / 1e6
		if math.Abs(got-tc.want)/tc.want > tc.tol {
			t.Errorf("%s: %.0fM params, want within %.0f%% of %.0fM", tc.mc.Name, got, tc.tol*100, tc.want)
		}
	}
}

func TestLayerFractionsSumToLayerCount(t *testing.T) {
	for _, gran := range []Granularity{SubLayer, Layer} {
		bl := build(t, config.GPT2_762M(), gran)
		var sum float64
		for _, b := range bl.List {
			sum += b.LayerFraction()
		}
		if sum != float64(bl.Model.Layers) {
			t.Errorf("granularity %v: layer fractions sum to %v, want %d", gran, sum, bl.Model.Layers)
		}
	}
}

func TestRebuildChangesOnlyGeometry(t *testing.T) {
	bl := build(t, config.GPT2_345M(), SubLayer)
	big, err := bl.Rebuild(8)
	if err != nil {
		t.Fatal(err)
	}
	if big.Len() != bl.Len() || big.Granularity() != bl.Granularity() {
		t.Error("rebuild changed structure")
	}
	if big.TotalParams() != bl.TotalParams() {
		t.Error("rebuild changed parameters")
	}
	if totalFwd(big) <= totalFwd(bl) {
		t.Error("doubling the micro-batch did not increase compute")
	}
	if big.Comm <= bl.Comm {
		t.Error("doubling the micro-batch did not increase comm payload")
	}
}

func TestBuildValidation(t *testing.T) {
	cl := config.DefaultCluster()
	bad := config.GPT2_345M()
	bad.Layers = 0
	if _, err := Build(bad, cost.Geometry{MicroBatch: 4}, cl.Device, cl.Network, SubLayer); err == nil {
		t.Error("want error for invalid model")
	}
	if _, err := Build(config.GPT2_345M(), cost.Geometry{MicroBatch: 0}, cl.Device, cl.Network, SubLayer); err == nil {
		t.Error("want error for zero micro-batch")
	}
}

func TestWeightsMatchBlockTimes(t *testing.T) {
	bl := build(t, config.BERTLarge(), SubLayer)
	w := bl.Weights()
	for i, b := range bl.List {
		if w[i] != b.Fwd+b.Bwd {
			t.Errorf("weight %d = %g, want f+b = %g", i, w[i], b.Fwd+b.Bwd)
		}
	}
}

func TestStringMentionsModel(t *testing.T) {
	bl := build(t, config.GPT2_345M(), SubLayer)
	if s := bl.String(); len(s) == 0 {
		t.Error("empty description")
	}
}

// totalFwd is the forward time of one micro-batch through the whole model.
func totalFwd(bl *Blocks) float64 {
	var t float64
	for _, b := range bl.List {
		t += b.Fwd
	}
	return t
}
