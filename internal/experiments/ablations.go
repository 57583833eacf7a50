package experiments

import (
	"fmt"

	"autopipe/internal/config"
	"autopipe/internal/cost"
	"autopipe/internal/exec"
	"autopipe/internal/model"
	"autopipe/internal/plan"
	"autopipe/internal/schedule"
	"autopipe/internal/slicer"
	"autopipe/internal/tableio"
)

// The ablations below go beyond the paper's figures: they isolate the design
// choices DESIGN.md calls out (sub-layer granularity, the heuristic search,
// the slicing count, and the 1F1B schedule itself) on the same simulated
// testbed.

// GranularityPoint compares planning at sub-layer versus layer granularity.
type GranularityPoint struct {
	Model          string
	Depth          int
	SubLayerIter   float64
	LayerIter      float64
	SubLayerStdDev float64
	LayerStdDev    float64
}

// AblationGranularity quantifies the paper's central design choice (§III-B):
// how much of AutoPipe's win comes from planning at sub-layer granularity
// rather than whole layers, with the identical heuristic search.
func (e Env) AblationGranularity() ([]GranularityPoint, *tableio.Table, error) {
	t := &tableio.Table{
		ID:      "abl-granularity",
		Title:   "Sub-layer vs layer granularity (same heuristic planner)",
		Columns: []string{"Model", "Stages", "Sub-layer iter (ms)", "Layer iter (ms)", "Gain", "Sub-layer stddev (ms)", "Layer stddev (ms)"},
	}
	var points []GranularityPoint
	for _, mc := range []config.Model{config.GPT2_345M(), config.BERTLarge()} {
		for _, depth := range []int{4, 8, 12} {
			p := GranularityPoint{Model: mc.Name, Depth: depth}
			for _, gran := range []model.Granularity{model.SubLayer, model.Layer} {
				bl, err := model.Build(mc, cost.Geometry{MicroBatch: 4, Checkpoint: true},
					e.Cluster.Device, e.Cluster.Network, gran)
				if err != nil {
					return nil, nil, err
				}
				res, err := e.planDepth(bl, depth, 2*depth)
				if err != nil {
					return nil, nil, err
				}
				r, err := e.runPartition(bl, res.Best.Partition, 2*depth, 0, 0)
				if err != nil {
					return nil, nil, err
				}
				if gran == model.SubLayer {
					p.SubLayerIter = r.IterTime
					p.SubLayerStdDev = res.Best.Partition.Imbalance(bl)
				} else {
					p.LayerIter = r.IterTime
					p.LayerStdDev = res.Best.Partition.Imbalance(bl)
				}
			}
			points = append(points, p)
			t.AddRow(mc.Name, fmt.Sprint(depth),
				tableio.Ms(p.SubLayerIter), tableio.Ms(p.LayerIter),
				tableio.Speedup(p.LayerIter/p.SubLayerIter),
				tableio.Ms(p.SubLayerStdDev), tableio.Ms(p.LayerStdDev))
		}
	}
	return points, t, nil
}

// HeuristicPoint compares the Algorithm 1 seed with the heuristic's result.
type HeuristicPoint struct {
	Model     string
	Depth     int
	SeedIter  float64
	FinalIter float64
	Evaluated int
}

// AblationHeuristic isolates the master-stage heuristic (§III-B step 2/3):
// the improvement over planning with Algorithm 1 alone.
func (e Env) AblationHeuristic() ([]HeuristicPoint, *tableio.Table, error) {
	t := &tableio.Table{
		ID:      "abl-heuristic",
		Title:   "Heuristic master-stage search vs Algorithm 1 seed alone",
		Columns: []string{"Model", "Stages", "Seed iter (ms)", "Heuristic iter (ms)", "Gain", "Schemes assessed"},
	}
	var points []HeuristicPoint
	for _, mc := range config.Zoo() {
		for _, depth := range []int{4, 8} {
			bl, err := e.buildSub(mc, 4)
			if err != nil {
				return nil, nil, err
			}
			res, err := e.planDepth(bl, depth, 2*depth)
			if err != nil {
				return nil, nil, err
			}
			p := HeuristicPoint{
				Model: mc.Name, Depth: depth,
				SeedIter:  res.Seed.Sim.IterTime,
				FinalIter: res.Best.Sim.IterTime,
				Evaluated: res.Evaluated,
			}
			points = append(points, p)
			t.AddRow(mc.Name, fmt.Sprint(depth),
				tableio.Ms(p.SeedIter), tableio.Ms(p.FinalIter),
				tableio.Speedup(p.SeedIter/p.FinalIter), fmt.Sprint(p.Evaluated))
		}
	}
	return points, t, nil
}

// SlicingPoint sweeps the number of sliced micro-batches.
type SlicingPoint struct {
	NumSliced int
	Solved    bool // Algorithm 2's own answer
	IterTime  float64
	Startup   float64
}

// AblationSlicingCount sweeps the slicing count around Algorithm 2's answer
// on a deep GPT-2 345M pipeline, showing that the solved count captures the
// full startup reduction and that slicing every warmup micro-batch buys
// nothing further (paper §III-C: "applying micro-batch slicing to all
// micro-batches in the Warmup phase is unnecessary").
func (e Env) AblationSlicingCount() ([]SlicingPoint, *tableio.Table, error) {
	const depth, mbs = 8, 4
	m := 2 * depth
	bl, err := e.buildSub(config.GPT2_345M(), mbs)
	if err != nil {
		return nil, nil, err
	}
	res, err := e.planDepth(bl, depth, m)
	if err != nil {
		return nil, nil, err
	}
	part := res.Best.Partition
	sp, err := slicer.SolveProfile(part.Profile(bl, m))
	if err != nil {
		return nil, nil, err
	}

	t := &tableio.Table{
		ID:      "abl-slicing",
		Title:   fmt.Sprintf("Slicing-count sweep; GPT-2 345M, %d stages (Algorithm 2 answer: %d)", depth, sp.NumSliced),
		Columns: []string{"Sliced", "Iter (ms)", "Startup (ms)", "Algorithm 2"},
	}
	var points []SlicingPoint
	for n := 0; n <= depth; n++ {
		r, err := e.runPartition(bl, part, m, n, 0)
		if err != nil {
			return nil, nil, err
		}
		p := SlicingPoint{NumSliced: n, Solved: n == sp.NumSliced, IterTime: r.IterTime, Startup: r.Startup}
		points = append(points, p)
		mark := ""
		if p.Solved {
			mark = "<-"
		}
		t.AddRow(fmt.Sprint(n), tableio.Ms(p.IterTime), tableio.Ms(p.Startup), mark)
	}
	return points, t, nil
}

// SchedulePoint compares schedules on the same partition.
type SchedulePoint struct {
	Schedule string
	Depth    int
	IterTime float64
	// PeakStash is the worst per-device activation stash in micro-batch
	// units, from the execution-trace memory ledger.
	PeakStash float64
}

// AblationSchedules runs GPipe, 1F1B, and sliced 1F1B on the same balanced
// partition, reporting time and the executed activation peak: GPipe matches
// 1F1B's makespan on a balanced pipeline but holds every micro-batch's
// activations — why 1F1B is the backbone schedule (paper §II-B).
func (e Env) AblationSchedules() ([]SchedulePoint, *tableio.Table, error) {
	const depth, mbs = 4, 4
	m := 2 * depth
	bl, err := e.buildSub(config.GPT2_345M(), mbs)
	if err != nil {
		return nil, nil, err
	}
	res, err := e.planDepth(bl, depth, m)
	if err != nil {
		return nil, nil, err
	}
	prof := res.Best.Partition.Profile(bl, m)
	sp, err := slicer.SolveProfile(prof)
	if err != nil {
		return nil, nil, err
	}

	builders := []struct {
		name  string
		build func() (*schedule.Schedule, error)
	}{
		{"GPipe", func() (*schedule.Schedule, error) { return schedule.GPipe(depth, m) }},
		{"1F1B", func() (*schedule.Schedule, error) { return schedule.OneFOneB(depth, m) }},
		{"Sliced-1F1B", func() (*schedule.Schedule, error) { return schedule.Sliced(depth, m, sp.NumSliced) }},
	}
	t := &tableio.Table{
		ID:      "abl-schedule",
		Title:   "Schedule ablation on the planner's partition; GPT-2 345M, 4 stages",
		Columns: []string{"Schedule", "Iter (ms)", "Startup (ms)", "Peak stash (micro-batches)"},
	}
	var points []SchedulePoint
	for _, bd := range builders {
		s, err := bd.build()
		if err != nil {
			return nil, nil, err
		}
		r, err := exec.Run(s, plan.ExecConfig(prof.Fwd, prof.Bwd, bl, e.Cluster))
		if err != nil {
			return nil, nil, err
		}
		// Count activation residency in whole-micro-batch units.
		ledger := &exec.MemoryLedger{StashBytes: make([]int64, depth), StaticBytes: make([]int64, depth)}
		for i := range ledger.StashBytes {
			ledger.StashBytes[i] = 2 // 2 so a half op stays integral
		}
		peaks, err := ledger.PeakUsage(s, r)
		if err != nil {
			return nil, nil, err
		}
		var worst int64
		for _, p := range peaks {
			if p > worst {
				worst = p
			}
		}
		pt := SchedulePoint{Schedule: bd.name, Depth: depth, IterTime: r.IterTime, PeakStash: float64(worst) / 2}
		points = append(points, pt)
		t.AddRow(bd.name, tableio.Ms(r.IterTime), tableio.Ms(r.Startup), fmt.Sprintf("%.1f", pt.PeakStash))
	}
	return points, t, nil
}

// AblationInterleaved tests the paper's §I claim that Megatron's interleaved
// schedule "damages the pipeline balance and thus harms the system
// throughput": although interleaving halves the startup overhead (Fig. 14),
// its fixed even chunk assignment pins the embedding to device 0 and the
// vocabulary head to the last device's final chunk, so the steady state
// bottlenecks on the head-heavy device and each micro-batch pays twice the
// cross-device hops. AutoPipe instead rebalances the partition and keeps the
// one-chunk schedule.
func (e Env) AblationInterleaved() ([]Point, *tableio.Table, error) {
	var settings []setting
	for _, mbs := range []int{4, 8, 16} {
		settings = append(settings, setting{config.GPT2_345M(), 4, mbs, 8})
	}
	t := &tableio.Table{
		ID:      "abl-interleaved",
		Title:   "Iteration time (ms): plain 1F1B vs interleaved vs AutoPipe; GPT-2 345M, 4 stages",
		Columns: []string{"Mbs", "Megatron 1F1B", "Interleaved", "AutoPipe", "AutoPipe vs interleaved"},
	}
	t.Note("interleaving halves startup (Fig. 14) but its fixed even chunks cannot rebalance the head-heavy tail and its micro-batches hop twice as often")
	return e.compareTable(t, settings, func(p Point) []string {
		row := append([]string{fmt.Sprint(p.Mbs)}, cells(p, false, SeriesMegatron, SeriesInterleaved, SeriesAutoPipe)...)
		return append(row, speedupCell(p, SeriesInterleaved, SeriesAutoPipe))
	})
}
