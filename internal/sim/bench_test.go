package sim

import (
	"fmt"
	"testing"

	"autopipe/internal/config"
	"autopipe/internal/cost"
	"autopipe/internal/model"
)

// zooProfile is GPT-2 762M (74 sub-layer blocks, mbs 4, checkpointing) on the
// default cluster, split into p stages of near-equal block counts: the
// lumpy embedding and head blocks make the first and last stages differ, as
// in the planner's candidates.
func zooProfile(tb testing.TB, p, m int) StageProfile {
	tb.Helper()
	cl := config.DefaultCluster()
	bl, err := model.Build(config.GPT2_762M(), cost.Geometry{MicroBatch: 4, Checkpoint: true},
		cl.Device, cl.Network, model.SubLayer)
	if err != nil {
		tb.Fatal(err)
	}
	prof := StageProfile{Fwd: make([]float64, p), Bwd: make([]float64, p), Comm: bl.Comm, Micro: m}
	for x := 0; x < p; x++ {
		for i := x * bl.Len() / p; i < (x+1)*bl.Len()/p; i++ {
			prof.Fwd[x] += bl.List[i].Fwd
			prof.Bwd[x] += bl.List[i].Bwd
		}
	}
	return prof
}

// BenchmarkSummarize measures the planner's per-candidate simulation on a
// warmed Scratch at the shapes the plan-cold zoo search reaches: 4 stages
// with 32 micro-batches, and 16 stages with 128. The degenerate 16 stages
// with 8 micro-batches (m < n) leaves half the stages without a 1F1B phase,
// so it times the sweep where warmup runs straight into cooldown.
func BenchmarkSummarize(b *testing.B) {
	for _, tc := range []struct{ p, m int }{{4, 32}, {16, 128}, {16, 8}} {
		b.Run(fmt.Sprintf("p%d_m%d", tc.p, tc.m), func(b *testing.B) {
			prof := zooProfile(b, tc.p, tc.m)
			var s Scratch
			if _, err := s.Summarize(prof); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Summarize(prof); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
