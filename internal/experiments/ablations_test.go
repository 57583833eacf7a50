package experiments

import "testing"

func TestAblationGranularitySubLayerWins(t *testing.T) {
	e := DefaultEnv()
	points, _, err := e.AblationGranularity()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range points {
		// Sub-layer planning is never worse, and its partitions are at
		// least as balanced; at depth >= 8 it must show a real gain.
		if p.SubLayerIter > p.LayerIter*1.001 {
			t.Errorf("%s depth %d: sub-layer (%.1f ms) worse than layer (%.1f ms)",
				p.Model, p.Depth, p.SubLayerIter*1e3, p.LayerIter*1e3)
		}
		if p.SubLayerStdDev > p.LayerStdDev*1.001 {
			t.Errorf("%s depth %d: sub-layer less balanced (%.2f vs %.2f ms stddev)",
				p.Model, p.Depth, p.SubLayerStdDev*1e3, p.LayerStdDev*1e3)
		}
		if p.Depth >= 8 && p.LayerIter/p.SubLayerIter < 1.005 {
			t.Errorf("%s depth %d: sub-layer gain only %.3fx, want a visible win at depth >= 8",
				p.Model, p.Depth, p.LayerIter/p.SubLayerIter)
		}
	}
}

func TestAblationHeuristicNeverHurts(t *testing.T) {
	e := DefaultEnv()
	points, _, err := e.AblationHeuristic()
	if err != nil {
		t.Fatal(err)
	}
	improvedSomewhere := false
	for _, p := range points {
		if p.FinalIter > p.SeedIter+1e-12 {
			t.Errorf("%s depth %d: heuristic worse than seed", p.Model, p.Depth)
		}
		if p.FinalIter < p.SeedIter*0.9999 {
			improvedSomewhere = true
		}
		if p.Evaluated < 2 {
			t.Errorf("%s depth %d: heuristic assessed only %d schemes", p.Model, p.Depth, p.Evaluated)
		}
	}
	if !improvedSomewhere {
		t.Error("the heuristic never improved on Algorithm 1 across the zoo")
	}
}

func TestAblationSlicingCountKnee(t *testing.T) {
	e := DefaultEnv()
	points, _, err := e.AblationSlicingCount()
	if err != nil {
		t.Fatal(err)
	}
	var solved, unsliced, max SlicingPoint
	for _, p := range points {
		if p.Solved {
			solved = p
		}
		if p.NumSliced == 0 {
			unsliced = p
		}
		if p.NumSliced == len(points)-1 {
			max = p
		}
	}
	// Algorithm 2's answer halves the startup...
	if r := unsliced.Startup / solved.Startup; r < 1.8 || r > 2.2 {
		t.Errorf("solved count reduces startup %.2fx, want ~2x", r)
	}
	// ...and slicing everything buys (almost) nothing more.
	if solved.Startup > max.Startup*1.05 {
		t.Errorf("solved startup %.1f ms leaves >5%% on the table vs all-sliced %.1f ms",
			solved.Startup*1e3, max.Startup*1e3)
	}
	// The solved count never slows the iteration down vs unsliced.
	if solved.IterTime > unsliced.IterTime*1.001 {
		t.Errorf("solved slicing slowed the iteration: %.1f vs %.1f ms",
			solved.IterTime*1e3, unsliced.IterTime*1e3)
	}
}

func TestAblationSchedulesMemoryTimeTradeoff(t *testing.T) {
	e := DefaultEnv()
	points, _, err := e.AblationSchedules()
	if err != nil {
		t.Fatal(err)
	}
	by := map[string]SchedulePoint{}
	for _, p := range points {
		by[p.Schedule] = p
	}
	// GPipe holds all m micro-batches; 1F1B at most p.
	if by["GPipe"].PeakStash <= by["1F1B"].PeakStash {
		t.Errorf("GPipe peak stash %.1f not above 1F1B %.1f", by["GPipe"].PeakStash, by["1F1B"].PeakStash)
	}
	if by["1F1B"].PeakStash > 4 {
		t.Errorf("1F1B peak stash %.1f exceeds the pipeline depth", by["1F1B"].PeakStash)
	}
	// Sliced 1F1B is the fastest and no hungrier than 1F1B.
	if by["Sliced-1F1B"].IterTime > by["1F1B"].IterTime*1.001 {
		t.Errorf("sliced (%.1f ms) slower than 1F1B (%.1f ms)",
			by["Sliced-1F1B"].IterTime*1e3, by["1F1B"].IterTime*1e3)
	}
	if by["Sliced-1F1B"].PeakStash > by["1F1B"].PeakStash {
		t.Errorf("slicing increased the activation peak: %.1f vs %.1f",
			by["Sliced-1F1B"].PeakStash, by["1F1B"].PeakStash)
	}
}

func TestAblationInterleavedHarmsThroughputDespiteStartup(t *testing.T) {
	// Paper §I: "the interleaved schedule damages the pipeline balance and
	// thus harms the system throughput" — it must lose to AutoPipe on every
	// iteration time while still beating plain Megatron on startup.
	e := DefaultEnv()
	points, _, err := e.AblationInterleaved()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range points {
		mega, inter, auto := p.Results[SeriesMegatron], p.Results[SeriesInterleaved], p.Results[SeriesAutoPipe]
		if inter.OOM || inter.Infeasible {
			t.Errorf("mbs=%d: interleaved cannot run: %+v", p.Mbs, inter)
			continue
		}
		if auto.IterTime >= inter.IterTime {
			t.Errorf("mbs=%d: AutoPipe (%.1f ms) not faster than interleaved (%.1f ms)",
				p.Mbs, auto.IterTime*1e3, inter.IterTime*1e3)
		}
		if inter.Startup >= mega.Startup {
			t.Errorf("mbs=%d: interleaved startup %.1f ms not below Megatron %.1f ms",
				p.Mbs, inter.Startup*1e3, mega.Startup*1e3)
		}
	}
}
