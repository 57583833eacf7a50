package schedule

import (
	"fmt"
	"testing"
)

// Dependency-model micro-benchmarks: DepGraph construction and the Kahn
// check run once per sanitized execution and once per checked-in golden in
// the root fixture test, so their cost is pinned in BENCH_*.json via
// cmd/autopipebench.

func BenchmarkDependencies(b *testing.B) {
	for _, tc := range []struct{ p, m int }{{8, 32}, {16, 64}} {
		b.Run(fmt.Sprintf("1f1b_p%d_m%d", tc.p, tc.m), func(b *testing.B) {
			s, err := OneFOneB(tc.p, tc.m)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Dependencies(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("sliced_p8_m32", func(b *testing.B) {
		s, err := Sliced(8, 32, 7)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.Dependencies(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkAcyclic(b *testing.B) {
	s, err := OneFOneB(16, 64)
	if err != nil {
		b.Fatal(err)
	}
	g, err := s.Dependencies()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := g.Acyclic(); err != nil {
			b.Fatal(err)
		}
	}
}
