// Benchmarks that regenerate every table and figure of the paper's
// evaluation (one benchmark per table/figure; see DESIGN.md §5 for the
// mapping). Custom metrics report the headline quantity of each experiment
// so `go test -bench=. -benchmem` prints the reproduced results alongside
// the harness cost.
package autopipe_test

import (
	"context"
	"testing"

	"autopipe"
	"autopipe/internal/config"
	"autopipe/internal/experiments"
)

func env() experiments.Env { return experiments.DefaultEnv() }

// BenchmarkTable1Models regenerates Table I (benchmark model inventory).
func BenchmarkTable1Models(b *testing.B) {
	e := env()
	for i := 0; i < b.N; i++ {
		if _, err := e.Table1(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2Partitions regenerates Table II (the seven GPT-2 345M
// partition schemes) via the analytic simulator.
func BenchmarkTable2Partitions(b *testing.B) {
	e := env()
	for i := 0; i < b.N; i++ {
		if _, err := e.Table2(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig9IterTimeVsMicroBatch regenerates Fig. 9 (iteration time vs
// micro-batch size, 4 stages) and reports AutoPipe's best speedup.
func BenchmarkFig9IterTimeVsMicroBatch(b *testing.B) {
	e := env()
	var best float64
	for i := 0; i < b.N; i++ {
		points, _, err := e.Fig9()
		if err != nil {
			b.Fatal(err)
		}
		best = 0
		for _, p := range points {
			m, a := p.Results[experiments.SeriesMegatron], p.Results[experiments.SeriesAutoPipe]
			if !m.OOM && !a.OOM && a.IterTime > 0 {
				if s := m.IterTime / a.IterTime; s > best {
					best = s
				}
			}
		}
	}
	b.ReportMetric(best, "max-speedup")
}

// BenchmarkFig10IterTimeVsDepth regenerates Fig. 10 (iteration time vs
// pipeline depth) and reports AutoPipe's best speedup (the paper's 1.30x
// headline comes from this sweep).
func BenchmarkFig10IterTimeVsDepth(b *testing.B) {
	e := env()
	var best float64
	for i := 0; i < b.N; i++ {
		points, _, err := e.Fig10()
		if err != nil {
			b.Fatal(err)
		}
		best = 0
		for _, p := range points {
			m, a := p.Results[experiments.SeriesMegatron], p.Results[experiments.SeriesAutoPipe]
			if !m.OOM && !a.OOM && a.IterTime > 0 {
				if s := m.IterTime / a.IterTime; s > best {
					best = s
				}
			}
		}
	}
	b.ReportMetric(best, "max-speedup")
}

// BenchmarkFig11SimulatorAccuracy regenerates Fig. 11 (simulator vs actual)
// and reports the mean relative gap.
func BenchmarkFig11SimulatorAccuracy(b *testing.B) {
	e := env()
	var gap float64
	for i := 0; i < b.N; i++ {
		points, _, err := e.Fig11()
		if err != nil {
			b.Fatal(err)
		}
		gap = 0
		for _, p := range points {
			gap += (p.Actual - p.Simulated) / p.Simulated
		}
		gap /= float64(len(points))
	}
	b.ReportMetric(100*gap, "mean-gap-%")
}

// BenchmarkTable3LowMemory regenerates Table III (planner comparison, low
// memory demand).
func BenchmarkTable3LowMemory(b *testing.B) {
	e := env()
	for i := 0; i < b.N; i++ {
		if _, _, err := e.Table3(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable4HighMemory regenerates Table IV (planner comparison, high
// memory demand).
func BenchmarkTable4HighMemory(b *testing.B) {
	e := env()
	for i := 0; i < b.N; i++ {
		if _, _, err := e.Table4(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig12SearchTime regenerates Fig. 12 (planner search time) and
// reports the DAPPLE/AutoPipe and Piper/AutoPipe time ratios on GPT-2 345M.
func BenchmarkFig12SearchTime(b *testing.B) {
	e := env()
	var dRatio, pRatio float64
	for i := 0; i < b.N; i++ {
		points, _, err := e.Fig12()
		if err != nil {
			b.Fatal(err)
		}
		times := map[string]float64{}
		for _, p := range points {
			if p.Model == "GPT-2 345M" {
				times[p.Planner] = p.Search.Seconds()
			}
		}
		dRatio = times["DAPPLE"] / times["AutoPipe"]
		pRatio = times["Piper"] / times["AutoPipe"]
	}
	b.ReportMetric(dRatio, "dapple/autopipe")
	b.ReportMetric(pRatio, "piper/autopipe")
}

// BenchmarkFig13Balance regenerates Fig. 13 (pipeline balance) and reports
// the worst-case balance improvement of AutoPipe.
func BenchmarkFig13Balance(b *testing.B) {
	e := env()
	var improvement float64
	for i := 0; i < b.N; i++ {
		points, _, err := e.Fig13()
		if err != nil {
			b.Fatal(err)
		}
		auto := map[int]float64{}
		for _, p := range points {
			if p.Planner == "AutoPipe" {
				auto[p.GPUs] = p.StdDev
			}
		}
		improvement = 0
		for _, p := range points {
			if p.Planner != "AutoPipe" && auto[p.GPUs] > 0 {
				if r := p.StdDev / auto[p.GPUs]; r > improvement {
					improvement = r
				}
			}
		}
	}
	b.ReportMetric(improvement, "max-balance-x")
}

// BenchmarkFig14aStartupVsMicroBatch regenerates Fig. 14(a) and reports the
// Slicer's startup reduction at micro-batch 4.
func BenchmarkFig14aStartupVsMicroBatch(b *testing.B) {
	e := env()
	var reduction float64
	for i := 0; i < b.N; i++ {
		points, _, err := e.Fig14a()
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range points {
			if p.Mbs == 4 {
				reduction = p.Results[experiments.SeriesMegatron].Startup /
					p.Results[experiments.SeriesSlicer].Startup
			}
		}
	}
	b.ReportMetric(reduction, "startup-reduction-x")
}

// BenchmarkFig14bStartupVsDepth regenerates Fig. 14(b).
func BenchmarkFig14bStartupVsDepth(b *testing.B) {
	e := env()
	for i := 0; i < b.N; i++ {
		if _, _, err := e.Fig14b(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlannerGPT2_345M measures the AutoPipe planner itself at the
// paper's most common configuration (not a paper figure; a harness-level
// sanity benchmark).
func BenchmarkPlannerGPT2_345M(b *testing.B) {
	cluster := config.DefaultCluster()
	cluster.NumGPUs = 4
	run := config.Run{MicroBatch: 4, GlobalBatch: 128, Checkpoint: true}
	planner := autopipe.NewPlanner()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := planner.Plan(context.Background(), config.GPT2_345M(), run, cluster); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlannerGPT2_1_3B measures the plan-space search on the heaviest
// zoo configuration: GPT-2 1.3B across 16 GPUs at a large global batch,
// where the depth-16 search with 256 micro-batches dominates.
func BenchmarkPlannerGPT2_1_3B(b *testing.B) {
	model := config.GPT2_1_3B()
	cluster := config.DefaultCluster()
	run := config.Run{MicroBatch: 16, GlobalBatch: 4096, Checkpoint: true}
	planner := autopipe.NewPlanner()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := planner.Plan(context.Background(), model, run, cluster); err != nil {
			b.Fatal(err)
		}
	}
}
