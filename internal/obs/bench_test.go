package obs

import (
	"strconv"
	"testing"
)

// The registry sits on every hot path (exec event loop, planner engine
// waves), so its per-update cost is measured here; the allocation-free
// update path is pinned by TestRegistryUpdateAllocsPinned.

func BenchmarkCounterAdd(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("bench.ops")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	r := NewRegistry()
	h := r.Histogram("bench.seconds")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i&1023) * 1e-6)
	}
}

func BenchmarkRegistryLookup(b *testing.B) {
	r := NewRegistry()
	for i := 0; i < 64; i++ {
		r.Counter("bench.c" + strconv.Itoa(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Counter("bench.c42").Inc()
	}
}

func BenchmarkSnapshot(b *testing.B) {
	r := NewRegistry()
	for i := 0; i < 16; i++ {
		r.Counter("bench.c" + strconv.Itoa(i)).Add(float64(i))
		r.Gauge("bench.g" + strconv.Itoa(i)).Set(float64(i))
		h := r.Histogram("bench.h" + strconv.Itoa(i))
		for j := 0; j < 8; j++ {
			h.Observe(float64(j))
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s := r.Snapshot(); len(s.Counters) != 16 {
			b.Fatal("bad snapshot")
		}
	}
}

func BenchmarkWritePrometheus(b *testing.B) {
	s := promRegistry().Snapshot()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.WritePrometheus(discard{}); err != nil {
			b.Fatal(err)
		}
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }
