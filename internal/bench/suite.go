package bench

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"

	"autopipe"
	"autopipe/internal/config"
	"autopipe/internal/exec"
	"autopipe/internal/obs"
	"autopipe/internal/schedule"
	"autopipe/internal/sim"
	"autopipe/internal/slicer"
)

// Benchmark is one suite entry: a function driven by testing.Benchmark plus
// an optional extractor that turns the obs registry's post-run snapshot into
// custom metrics for the baseline.
type Benchmark struct {
	// Name keys the entry in BENCH_*.json; compare matches entries by it.
	Name string
	// Bench runs the workload b.N times. The registry is reset before every
	// invocation, so after the final (measured) run it holds exactly that
	// run's counts.
	Bench func(b *testing.B, reg *obs.Registry)
	// Custom derives baseline metrics from the final run's registry snapshot
	// and the benchmark result; nil means no custom metrics.
	Custom func(snap obs.Snapshot, r testing.BenchmarkResult) map[string]float64
}

// Options configures a suite run.
type Options struct {
	// Parallelism is the planner worker-pool size for the plan-search entry
	// (0 = one worker per CPU), the same knob as the CLIs' -parallelism.
	Parallelism int
	// Ctx bounds the plan-search entry's planning calls, the same knob as
	// the CLIs' -timeout; nil means context.Background().
	Ctx context.Context
	// Match filters entries by name; nil runs the whole suite.
	Match func(name string) bool
	// Progress, when non-nil, receives one line per completed entry.
	Progress io.Writer
}

// DefaultSuite returns the curated hot-path suite: plan-search throughput,
// the sanitized exec event loop, schedule dependency-graph construction, the
// Slicer's Algorithm 2, and the obs registry's own overhead.
func DefaultSuite(ctx context.Context, parallelism int) []Benchmark {
	if ctx == nil {
		ctx = context.Background()
	}
	return []Benchmark{
		{
			// The paper's Fig. 12 metric: end-to-end plan search (Algorithm 1
			// seed, cooldown flattening, master moves, memory check, slicing)
			// for GPT-2 345M on 8 GPUs. The registry doubles as the planner
			// observer, so cache and pruning statistics ride along.
			Name: "planner/plan_gpt2_345m_g8",
			Bench: func(b *testing.B, reg *obs.Registry) {
				cluster := config.DefaultCluster()
				cluster.NumGPUs = 8
				run := config.Run{MicroBatch: 4, GlobalBatch: 128, Checkpoint: true}
				p := autopipe.NewPlanner(autopipe.WithParallelism(parallelism), autopipe.WithObserver(reg))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, _, err := p.Plan(ctx, config.GPT2_345M(), run, cluster); err != nil {
						b.Fatal(err)
					}
				}
			},
			Custom: func(snap obs.Snapshot, r testing.BenchmarkResult) map[string]float64 {
				m := map[string]float64{}
				hits := snap.Counters["planner.engine.cache_hits"]
				misses := snap.Counters["planner.engine.cache_misses"]
				if hits+misses > 0 {
					m["cache_hit_ratio"] = hits / (hits + misses)
				}
				if n := float64(r.N); n > 0 {
					m["depths_pruned_per_plan"] = snap.Counters["planner.engine.depths_pruned"] / n
					m["candidates_per_plan"] = sumCounters(snap, "planner.p", ".candidates") / n
				}
				return m
			},
		},
		{
			// The executor's event loop with the happens-before sanitizer on —
			// the production -sanitize configuration — and the registry
			// attached but sinkless, so emission must cost nothing.
			Name: "exec/1f1b_p8_m32_sanitized",
			Bench: func(b *testing.B, reg *obs.Registry) {
				s, err := schedule.OneFOneB(8, 32)
				if err != nil {
					b.Fatal(err)
				}
				cfg := execCfg(8)
				cfg.Obs = reg
				cfg.Sanitize = true
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := exec.Run(s, cfg); err != nil {
						b.Fatal(err)
					}
				}
			},
			Custom: func(snap obs.Snapshot, r testing.BenchmarkResult) map[string]float64 {
				m := map[string]float64{}
				if secs := r.T.Seconds(); secs > 0 {
					m["ops_per_sec"] = snap.Counters["exec.ops"] / secs
				}
				if n := float64(r.N); n > 0 {
					m["ops_per_iter"] = snap.Counters["exec.ops"] / n
				}
				return m
			},
		},
		{
			// The same sanitized workload through a reused exec.Runner: the
			// steady-state regeneration path (soak loops, experiment sweeps).
			// After one warmup run every per-schedule cache is hot, and the
			// loop's allocsPerOp is pinned at 0 in the baseline, which the
			// package's allocation gate enforces.
			Name: "exec/1f1b_p8_m32_reuse",
			Bench: func(b *testing.B, reg *obs.Registry) {
				s, err := schedule.OneFOneB(8, 32)
				if err != nil {
					b.Fatal(err)
				}
				cfg := execCfg(8)
				cfg.Obs = reg
				cfg.Sanitize = true
				r := exec.NewRunner()
				// Warmup: populate the validation, sanitizer, and scratch
				// caches — and the registry's metric entries — so the
				// measured iterations (CI runs -benchtime 1x) see only the
				// steady state.
				if _, err := r.Run(s, cfg); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := r.Run(s, cfg); err != nil {
						b.Fatal(err)
					}
				}
			},
		},
		{
			// Dependency-model construction plus the Kahn check: the cost every
			// sanitized execution and every golden's deadlock check pays per
			// schedule.
			Name: "schedule/depgraph_1f1b_p16_m64",
			Bench: func(b *testing.B, reg *obs.Registry) {
				s, err := schedule.OneFOneB(16, 64)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				var ops int
				for i := 0; i < b.N; i++ {
					g, err := s.Dependencies()
					if err != nil {
						b.Fatal(err)
					}
					if err := g.Acyclic(); err != nil {
						b.Fatal(err)
					}
					ops = g.NumOps()
				}
				b.StopTimer()
				reg.Gauge("bench.graph_ops").Set(float64(ops))
			},
			Custom: func(snap obs.Snapshot, r testing.BenchmarkResult) map[string]float64 {
				return map[string]float64{"graph_ops": snap.Gauges["bench.graph_ops"]}
			},
		},
		{
			// Algorithm 2 at planner scale (16 stages, 256 micro-batches, an
			// unbalanced profile so the while loop iterates).
			Name: "slicer/solve_p16_m256",
			Bench: func(b *testing.B, reg *obs.Registry) {
				prof := slicerProfile(16, 256)
				b.ReportAllocs()
				b.ResetTimer()
				var plan slicer.Plan
				for i := 0; i < b.N; i++ {
					var err error
					if plan, err = slicer.SolveProfile(prof); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				reg.Gauge("bench.slicer_rounds").Set(float64(plan.Rounds))
				reg.Gauge("bench.slicer_num_sliced").Set(float64(plan.NumSliced))
			},
			Custom: func(snap obs.Snapshot, r testing.BenchmarkResult) map[string]float64 {
				return map[string]float64{
					"rounds":     snap.Gauges["bench.slicer_rounds"],
					"num_sliced": snap.Gauges["bench.slicer_num_sliced"],
				}
			},
		},
		{
			// Raw registry update cost: one counter bump plus one histogram
			// observation per op — what every exec.Run and engine wave pays.
			Name: "obs/registry_update",
			Bench: func(b *testing.B, reg *obs.Registry) {
				c := reg.Counter("bench.ops")
				h := reg.Histogram("bench.seconds")
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					c.Inc()
					h.Observe(float64(i&1023) * 1e-6)
				}
			},
		},
		{
			// The no-sink emission fast path; its allocsPerOp is pinned at 0
			// in the baseline, so any re-introduced allocation fails the
			// package's allocation gate.
			Name: "obs/emit_nosink",
			Bench: func(b *testing.B, reg *obs.Registry) {
				fields := obs.Fields{"device": 3, "seconds": 0.5}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					reg.Emit("bench.event", fields)
				}
			},
		},
	}
}

// execCfg is the executor suite configuration: distinct stage times, a real
// payload, finite bandwidth, kernel overhead — the same shape as the
// package-level executor benchmarks.
func execCfg(p int) exec.Config {
	fs := make([]float64, p)
	bs := make([]float64, p)
	for i := range fs {
		fs[i] = 0.010 + 0.001*float64(i%3)
		bs[i] = 2 * fs[i]
	}
	return exec.Config{
		VirtFwd: fs, VirtBwd: bs,
		CommBytes:      64 << 20,
		Network:        config.Network{Bandwidth: 25e9, Latency: 5e-6},
		KernelOverhead: 1e-5,
	}
}

// slicerProfile builds the unbalanced stage profile the slicer entry solves.
func slicerProfile(p, m int) sim.StageProfile {
	f := make([]float64, p)
	b := make([]float64, p)
	for i := range f {
		f[i] = 0.010 + 0.002*float64(i%4)
		b[i] = 2 * f[i]
	}
	return sim.StageProfile{Fwd: f, Bwd: b, Comm: 0.003, Micro: m}
}

// sumCounters sums every counter whose name starts with prefix and ends with
// suffix — e.g. the per-depth "planner.p<depth>.candidates" family.
func sumCounters(snap obs.Snapshot, prefix, suffix string) float64 {
	var total float64
	for name, v := range snap.Counters {
		if strings.HasPrefix(name, prefix) && strings.HasSuffix(name, suffix) {
			total += v
		}
	}
	return total
}

// RunSuite measures every matching suite entry and assembles the baseline.
// Each entry gets a fresh registry, reset again before every testing.B
// invocation so the final snapshot covers exactly the measured run.
func RunSuite(label string, opts Options) (*Baseline, error) {
	base := &Baseline{
		Label: label, Suite: SuiteID, GoVersion: runtime.Version(),
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Parallelism: opts.Parallelism,
	}
	if base.Parallelism <= 0 {
		base.Parallelism = base.GOMAXPROCS // the planner's own default
	}
	for _, bm := range DefaultSuite(opts.Ctx, opts.Parallelism) {
		if opts.Match != nil && !opts.Match(bm.Name) {
			continue
		}
		reg := obs.NewRegistry()
		fn := bm.Bench
		r := testing.Benchmark(func(b *testing.B) {
			reg.Reset()
			fn(b, reg)
		})
		if r.N <= 0 {
			return nil, fmt.Errorf("bench: %s failed (see benchmark output above)", bm.Name)
		}
		e := Entry{
			Name:        bm.Name,
			Iters:       r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: float64(r.AllocsPerOp()),
			BytesPerOp:  float64(r.AllocedBytesPerOp()),
		}
		if bm.Custom != nil {
			if m := bm.Custom(reg.Snapshot(), r); len(m) > 0 {
				e.Custom = m
			}
		}
		base.Benchmarks = append(base.Benchmarks, e)
		if opts.Progress != nil {
			fmt.Fprintf(opts.Progress, "%-32s %12.0f ns/op %8.0f allocs/op %10.0f B/op  (%d iters)\n",
				e.Name, e.NsPerOp, e.AllocsPerOp, e.BytesPerOp, e.Iters)
		}
	}
	if len(base.Benchmarks) == 0 {
		return nil, fmt.Errorf("bench: no suite entries matched the filter")
	}
	if err := base.Validate(); err != nil {
		return nil, err
	}
	return base, nil
}
