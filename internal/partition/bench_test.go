package partition

import (
	"testing"

	"autopipe/internal/config"
	"autopipe/internal/cost"
	"autopipe/internal/model"
)

// BenchmarkNewTable measures Algorithm 1's table fill at the planner's
// largest zoo shape: GPT-2 762M's 74 sub-layer blocks, every depth up to 16.
func BenchmarkNewTable(b *testing.B) {
	cl := config.DefaultCluster()
	bl, err := model.Build(config.GPT2_762M(), cost.Geometry{MicroBatch: 4, Checkpoint: true},
		cl.Device, cl.Network, model.SubLayer)
	if err != nil {
		b.Fatal(err)
	}
	weights := bl.Weights()
	if len(weights) != 74 {
		b.Fatalf("GPT-2 762M has %d blocks, want 74", len(weights))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewTable(weights, 16); err != nil {
			b.Fatal(err)
		}
	}
}
