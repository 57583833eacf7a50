package slicer

import (
	"fmt"
	"testing"

	"autopipe/internal/sim"
)

// Algorithm 2 runs once per planned configuration, so its cost at realistic depths is measured here
// and its allocations are pinned by TestSolveProfileAllocs.

// benchProfile builds a mildly unbalanced profile: slicing is only
// interesting when stages differ, and the imbalance keeps the while loop from
// converging on the first round.
func benchProfile(p, m int) sim.StageProfile {
	f := make([]float64, p)
	b := make([]float64, p)
	for i := range f {
		f[i] = 0.010 + 0.002*float64(i%4)
		b[i] = 2 * f[i]
	}
	return sim.StageProfile{Fwd: f, Bwd: b, Comm: 0.003, Micro: m}
}

func BenchmarkSolveProfile(b *testing.B) {
	for _, tc := range []struct{ p, m int }{{4, 16}, {16, 256}} {
		b.Run(fmt.Sprintf("p%d_m%d", tc.p, tc.m), func(b *testing.B) {
			prof := benchProfile(tc.p, tc.m)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := SolveProfile(prof); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestSolveProfileAllocs pins Algorithm 2 at two allocations per solve —
// its startt and endt working arrays — across depths and micro-batch
// counts, including fewer micro-batches than stages.
func TestSolveProfileAllocs(t *testing.T) {
	for _, tc := range []struct{ p, m int }{{4, 16}, {16, 256}, {8, 4}, {2, 2}} {
		prof := benchProfile(tc.p, tc.m)
		if n := testing.AllocsPerRun(100, func() {
			if _, err := SolveProfile(prof); err != nil {
				t.Fatal(err)
			}
		}); n > 2 {
			t.Errorf("p%d m%d: SolveProfile %v allocs/op, want at most 2", tc.p, tc.m, n)
		}
	}
}
