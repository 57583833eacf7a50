package exec

import (
	"fmt"
	"testing"

	"autopipe/internal/config"
	"autopipe/internal/obs"
	"autopipe/internal/schedule"
)

// Event-loop micro-benchmarks: the executor is the inner loop of every
// experiment regeneration, so its ops/sec (the sanitizer stays on — TestMain
// forces it for the whole package, exactly as production -sanitize runs pay
// for it) is measured here. Its allocations are pinned by
// TestSanitizedRunAllocsPinned.

// benchCfg is a realistic non-degenerate configuration: distinct stage
// times, a cross-stage payload, finite bandwidth, and a kernel overhead.
func benchCfg(p int) Config {
	fs := make([]float64, p)
	bs := make([]float64, p)
	for i := range fs {
		fs[i] = 0.010 + 0.001*float64(i%3)
		bs[i] = 2 * fs[i]
	}
	return Config{
		VirtFwd: fs, VirtBwd: bs,
		CommBytes:      64 << 20,
		Network:        config.Network{Bandwidth: 25e9, Latency: 5e-6},
		KernelOverhead: 1e-5,
	}
}

func benchRun(b *testing.B, s *schedule.Schedule, cfg Config) {
	b.Helper()
	ops := 0
	for _, dev := range s.Ops {
		ops += len(dev)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(s, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(ops), "ops/iter")
}

func BenchmarkRunOneFOneB(b *testing.B) {
	for _, tc := range []struct{ p, m int }{{4, 16}, {8, 32}} {
		b.Run(fmt.Sprintf("p%d_m%d", tc.p, tc.m), func(b *testing.B) {
			s, err := schedule.OneFOneB(tc.p, tc.m)
			if err != nil {
				b.Fatal(err)
			}
			benchRun(b, s, benchCfg(tc.p))
		})
	}
}

func BenchmarkRunSliced(b *testing.B) {
	p, m := 8, 32
	s, err := schedule.Sliced(p, m, p-1)
	if err != nil {
		b.Fatal(err)
	}
	benchRun(b, s, benchCfg(p))
}

func BenchmarkRunInterleaved(b *testing.B) {
	p, m, v := 4, 16, 2
	s, err := schedule.Interleaved(p, m, v)
	if err != nil {
		b.Fatal(err)
	}
	benchRun(b, s, benchCfg(p*v))
}

// BenchmarkRunObserved measures the executor with a metrics registry
// attached (counters, gauges, and the run histogram) — the configuration the
// CLIs and the daemon run with.
func BenchmarkRunObserved(b *testing.B) {
	p, m := 8, 32
	s, err := schedule.OneFOneB(p, m)
	if err != nil {
		b.Fatal(err)
	}
	cfg := benchCfg(p)
	cfg.Obs = obs.NewRegistry()
	benchRun(b, s, cfg)
}
