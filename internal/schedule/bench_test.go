package schedule

import (
	"fmt"
	"testing"
)

// Dependency-model micro-benchmark: DepGraph construction runs once per
// sanitized execution. TestDepGraphAllocsPinned pins its allocations.

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
