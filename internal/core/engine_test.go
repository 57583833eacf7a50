package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"autopipe/internal/config"
	"autopipe/internal/cost"
	"autopipe/internal/errdefs"
	"autopipe/internal/memory"
	"autopipe/internal/obs"
	"autopipe/internal/partition"
	"autopipe/internal/plan"
)

// workCounts are the search's deterministic work counters, as the engine
// publishes them.
type workCounts struct {
	hits, misses, pruned float64
}

func readWorkCounts(reg *obs.Registry) workCounts {
	c := reg.Snapshot().Counters
	return workCounts{c["planner.engine.cache_hits"], c["planner.engine.cache_misses"], c["planner.engine.depths_pruned"]}
}

// recordedPlans are the plans of the pooled engine this serial search
// replaced, recorded for every zoo model on the default 16-GPU cluster at
// mbs 4, gbs 512 (SearchTime zeroed), with the work counts of the
// depth-at-a-time search, which prunes before a depth's seed.
var recordedPlans = map[string]struct {
	spec plan.Spec
	work workCounts
}{
	"GPT-2 345M": {plan.Spec{Planner: "AutoPipe", Partition: partition.Partition{Bounds: []int{0, 50}}, StageDevices: []int{16},
		Evaluated: 35, Accepted: 4, Predicted: 6.2657541261864, SliceConverged: true}, workCounts{33, 35, 1}},
	"GPT-2 762M": {plan.Spec{Planner: "AutoPipe", Partition: partition.Partition{Bounds: []int{0, 74}}, StageDevices: []int{16},
		Evaluated: 62, Accepted: 7, Predicted: 12.186241824870084, SliceConverged: true}, workCounts{61, 62, 0}},
	"GPT-2 1.3B": {plan.Spec{Planner: "AutoPipe", Partition: partition.Partition{Bounds: []int{0, 27, 50}}, StageDevices: []int{8, 8},
		NumSliced: 1, Evaluated: 34, Accepted: 10, Predicted: 16.109056375649878, SliceRounds: 1, SliceConverged: true}, workCounts{19, 34, 0}},
	"BERT-large": {plan.Spec{Planner: "AutoPipe", Partition: partition.Partition{Bounds: []int{0, 50}}, StageDevices: []int{16},
		Evaluated: 30, Accepted: 9, Predicted: 2.946557396206328, SliceConverged: true}, workCounts{16, 30, 0}},
}

// TestEngineMatchesRecordedPlans is the engine's core contract: for every
// zoo model the plan is the recorded one, and so is the work that found it:
// the candidates evaluated and accepted, the simulation-cache hits and
// misses, and the depths pruned. Two back-to-back searches must also agree.
// SearchTime, the only wall-clock field, is zeroed before comparing.
func TestEngineMatchesRecordedPlans(t *testing.T) {
	cluster := config.DefaultCluster()
	run := config.Run{MicroBatch: 4, GlobalBatch: 512, Checkpoint: true}
	for _, mc := range config.Zoo() {
		want, ok := recordedPlans[mc.Name]
		if !ok {
			t.Fatalf("%s: no recorded plan", mc.Name)
		}
		for i := 0; i < 2; i++ {
			reg := obs.NewRegistry()
			spec, _, err := PlanClusterOpts(context.Background(), mc, run, cluster, Options{Obs: reg})
			if err != nil {
				t.Fatalf("%s run %d: %v", mc.Name, i, err)
			}
			spec.SearchTime = 0
			if !reflect.DeepEqual(*spec, want.spec) {
				t.Errorf("%s run %d: plan\n%+v\nwant the recorded\n%+v", mc.Name, i, *spec, want.spec)
			}
			if work := readWorkCounts(reg); work != want.work {
				t.Errorf("%s run %d: work counts (hits, misses, pruned) %v, want the recorded %v", mc.Name, i, work, want.work)
			}
		}
	}
}

// TestPlanClusterConcurrentCalls plans every zoo model from several
// goroutines at once, as the service's queue workers do: each call builds
// its own engine, so every call must still return the recorded plan (and
// `make race-core` checks that the calls share no state).
func TestPlanClusterConcurrentCalls(t *testing.T) {
	cluster := config.DefaultCluster()
	run := config.Run{MicroBatch: 4, GlobalBatch: 512, Checkpoint: true}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, mc := range config.Zoo() {
				spec, _, err := PlanClusterOpts(context.Background(), mc, run, cluster, Options{})
				if err != nil {
					t.Errorf("%s: %v", mc.Name, err)
					return
				}
				spec.SearchTime = 0
				if want := recordedPlans[mc.Name].spec; !reflect.DeepEqual(*spec, want) {
					t.Errorf("%s: concurrent plan\n%+v\nwant the recorded\n%+v", mc.Name, *spec, want)
				}
			}
		}()
	}
	wg.Wait()
}

// TestPlanDepthOptsDeterministicTelemetry pins down that not only the best
// partition but the entire search trajectory (candidate counts, convergence
// curve, cache hits and misses) is the recorded one, on two back-to-back
// runs. In the first case the seed is never beaten; in the second the search
// improves on it four times, once by a single ulp, so the curve shows the
// order in which candidates were counted.
func TestPlanDepthOptsDeterministicTelemetry(t *testing.T) {
	// step is one accepted improvement: from evaluation at on, the best
	// iteration time is iter.
	type step struct {
		at   int
		iter float64
	}
	for _, tc := range []struct {
		name     string
		mc       config.Model
		p, m     int
		best     []int
		accepted int
		steps    []step
		n        int // candidates, the curve's length
		work     workCounts
	}{
		{"GPT-2 762M p4 m16", config.GPT2_762M(), 4, 16, []int{0, 20, 39, 58, 74}, 1,
			[]step{{0, 6.982762342196323}}, 30, workCounts{31, 30, 0}},
		{"GPT-2 345M p4 m4", config.GPT2_345M(), 4, 4, []int{0, 17, 30, 41, 50}, 5,
			[]step{{0, 1.320279931836711}, {3, 1.3202799318367109}, {5, 1.3051767501364913},
				{19, 1.3014712338219034}, {24, 1.2969254636768484}}, 63, workCounts{69, 63, 0}},
	} {
		wantConv := make([]float64, tc.n)
		for i, s := range tc.steps {
			end := tc.n
			if i+1 < len(tc.steps) {
				end = tc.steps[i+1].at
			}
			for j := s.at; j < end; j++ {
				wantConv[j] = s.iter
			}
		}
		bl := buildSub(t, tc.mc, 4)
		for i := 0; i < 2; i++ {
			reg := obs.NewRegistry()
			res, err := PlanDepthOpts(context.Background(), bl, tc.p, tc.m, Options{Obs: reg})
			if err != nil {
				t.Fatalf("%s run %d: %v", tc.name, i, err)
			}
			if !reflect.DeepEqual(res.Best.Partition.Bounds, tc.best) {
				t.Errorf("%s run %d: best partition %v, want %v", tc.name, i, res.Best.Partition.Bounds, tc.best)
			}
			if res.Telemetry.Candidates != tc.n || res.Telemetry.Accepted != tc.accepted {
				t.Errorf("%s run %d: telemetry (%d, %d), want (%d, %d)", tc.name, i,
					res.Telemetry.Candidates, res.Telemetry.Accepted, tc.n, tc.accepted)
			}
			if !reflect.DeepEqual(res.Telemetry.Convergence, wantConv) {
				t.Errorf("%s run %d: convergence curve %v, want %v", tc.name, i, res.Telemetry.Convergence, wantConv)
			}
			if work := readWorkCounts(reg); work != tc.work {
				t.Errorf("%s run %d: work counts (hits, misses, pruned) %v, want %v", tc.name, i, work, tc.work)
			}
		}
	}
}

// TestPhaseTimesWithinSearchTime checks that the per-depth phase times
// partition the search rather than overlap: summed over every depth, the
// seed, adjust and move gauges must not exceed planner.engine.search_s, the
// wall-clock time of the whole call.
func TestPhaseTimesWithinSearchTime(t *testing.T) {
	cluster := config.DefaultCluster()
	for _, gbs := range []int{128, 512} {
		run := config.Run{MicroBatch: 4, GlobalBatch: gbs, Checkpoint: true}
		for _, mc := range config.Zoo() {
			reg := obs.NewRegistry()
			spec, _, err := PlanClusterOpts(context.Background(), mc, run, cluster, Options{Obs: reg})
			if err != nil {
				t.Fatalf("%s gbs %d: %v", mc.Name, gbs, err)
			}
			gauges := reg.Snapshot().Gauges
			phases := 0.0
			for p := 1; p <= cluster.NumGPUs; p++ {
				for _, phase := range []string{"seed_s", "adjust_s", "move_s"} {
					phases += gauges[fmt.Sprintf("planner.p%d.%s", p, phase)]
				}
			}
			search := gauges["planner.engine.search_s"]
			if search != spec.SearchTime.Seconds() {
				t.Fatalf("%s gbs %d: search_s %g, want SearchTime %g", mc.Name, gbs, search, spec.SearchTime.Seconds())
			}
			if phases > search {
				t.Errorf("%s gbs %d: per-depth phase times sum to %.3g s, %.2f× the %.3g s search",
					mc.Name, gbs, phases, phases/search, search)
			}
		}
	}
}

func TestEngineCancellation(t *testing.T) {
	bl := buildSub(t, config.GPT2_345M(), 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := PlanDepthOpts(ctx, bl, 4, 8, Options{}); !errors.Is(err, context.Canceled) {
		t.Errorf("PlanDepthOpts on cancelled ctx: err = %v, want context.Canceled", err)
	}
	run := config.Run{MicroBatch: 4, GlobalBatch: 128, Checkpoint: true}
	if _, _, err := PlanClusterOpts(ctx, config.GPT2_345M(), run, config.DefaultCluster(), Options{}); !errors.Is(err, context.Canceled) {
		t.Errorf("PlanClusterOpts on cancelled ctx: err = %v, want context.Canceled", err)
	}
}

// flipCtx is a context whose Err turns to context.Canceled from its
// (after+1)-th call on, counting the calls.
type flipCtx struct {
	context.Context
	after, calls int
}

func newFlipCtx(after int) *flipCtx { return &flipCtx{Context: context.Background(), after: after} }

func (c *flipCtx) Err() error {
	c.calls++
	if c.calls > c.after {
		return context.Canceled
	}
	return nil
}

// TestEngineStopsMidSearchOnCancel cancels the search at every one of its
// context checks in turn: PlanDepthOpts and PlanClusterOpts must return
// context.Canceled with a nil result at the first check after the flip and
// consult the context no more. The engine itself checks before every
// evaluation, so a search cancelled after k checks has run at most k.
func TestEngineStopsMidSearchOnCancel(t *testing.T) {
	bl := buildSub(t, config.GPT2_762M(), 4)
	run := config.Run{MicroBatch: 4, GlobalBatch: 128, Checkpoint: true}
	for _, tc := range []struct {
		name string
		plan func(context.Context) (bool, error) // reports whether a result came back
	}{
		{"PlanDepthOpts", func(ctx context.Context) (bool, error) {
			res, err := PlanDepthOpts(ctx, bl, 4, 16, Options{})
			return res != nil, err
		}},
		{"PlanClusterOpts", func(ctx context.Context) (bool, error) {
			spec, blocks, err := PlanClusterOpts(ctx, config.GPT2_345M(), run, config.DefaultCluster(), Options{})
			return spec != nil || blocks != nil, err
		}},
	} {
		full := newFlipCtx(1 << 30)
		if _, err := tc.plan(full); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if full.calls < 10 {
			t.Fatalf("%s: only %d context checks in a full search", tc.name, full.calls)
		}
		for k := 0; k < full.calls; k++ {
			ctx := newFlipCtx(k)
			got, err := tc.plan(ctx)
			if !errors.Is(err, context.Canceled) || got {
				t.Fatalf("%s cancelled after %d checks: result %v, err %v; want no result and context.Canceled", tc.name, k, got, err)
			}
			if ctx.calls != k+1 {
				t.Fatalf("%s cancelled after %d checks: %d checks, want %d", tc.name, k, ctx.calls, k+1)
			}
		}
	}

	// The same sweep on the engine directly: no evaluation runs unchecked.
	for k := 0; ; k++ {
		e := newEngine(bl, Options{})
		if err := e.fillTable(4); err != nil {
			t.Fatal(err)
		}
		err := e.search(newFlipCtx(k), newDepthState(4, 0, 16))
		if err == nil {
			break
		}
		if evals := e.hits + e.misses; evals > k {
			t.Fatalf("cancelled after %d checks: %d evaluations ran", k, evals)
		}
	}
}

func TestEngineBadConfig(t *testing.T) {
	bl := buildSub(t, config.GPT2_345M(), 4)
	if _, err := PlanDepthOpts(context.Background(), bl, 0, 8, Options{}); !errors.Is(err, errdefs.ErrBadConfig) {
		t.Errorf("depth 0: err = %v, want ErrBadConfig", err)
	}
	if _, err := PlanDepthOpts(context.Background(), bl, 4, 0, Options{}); !errors.Is(err, errdefs.ErrBadConfig) {
		t.Errorf("micro 0: err = %v, want ErrBadConfig", err)
	}
	run := config.Run{MicroBatch: 3, GlobalBatch: 128, Checkpoint: true}
	if _, _, err := PlanClusterOpts(context.Background(), config.GPT2_345M(), run, config.DefaultCluster(), Options{}); !errors.Is(err, errdefs.ErrBadConfig) {
		t.Errorf("indivisible global batch: err = %v, want ErrBadConfig", err)
	}
}

// smallVocab is a 32-layer model whose head block is light next to its
// layers.
var smallVocab = config.Model{Name: "small-vocab", Layers: 32, Hidden: 512, Heads: 8, FFNMult: 4, SeqLen: 512, Vocab: 256, TiedHead: true}

// TestPlanClusterDropsDepthOverSimCap checks that a depth the simulator
// rejects is dropped rather than failing the plan. On 32 GPUs at
// micro-batch 1 and global batch 65536 (Run.Validate's cap), depth 32 has
// 65536 micro-batches, past the simulator's op cap, while the shallower
// depths plan. A small vocabulary keeps the head block light, so the lower
// bound does not prune depth 32 and the search reaches it.
func TestPlanClusterDropsDepthOverSimCap(t *testing.T) {
	mc := smallVocab
	cluster := config.DefaultCluster()
	cluster.NumGPUs = 32
	run := config.Run{MicroBatch: 1, GlobalBatch: 65536, Checkpoint: true}
	reg := obs.NewRegistry()
	spec, bl, err := PlanClusterOpts(context.Background(), mc, run, cluster, Options{Obs: reg})
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	if spec.Depth() == 32 {
		t.Errorf("chose depth 32, which the simulator cannot take")
	}
	counters := reg.Snapshot().Counters
	if _, ok := counters["planner.p32.candidates"]; !ok {
		t.Fatalf("depth 32 was not searched (%g depths pruned), so the check shows nothing", counters["planner.engine.depths_pruned"])
	}
	if _, err := PlanDepthOpts(context.Background(), bl, 32, run.MicroBatches(1), Options{}); !errors.Is(err, errdefs.ErrBadConfig) {
		t.Errorf("depth 32 alone: err = %v, want ErrBadConfig", err)
	}
}

// TestEngineBudget checks that a search budget truncates the search
// deterministically while still returning a usable plan.
func TestEngineBudget(t *testing.T) {
	bl := buildSub(t, config.GPT2_762M(), 4)
	full, err := PlanDepthOpts(context.Background(), bl, 4, 16, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if full.Evaluated < 5 {
		t.Skipf("search too small (%d candidates) to exercise the budget", full.Evaluated)
	}
	a, err := PlanDepthOpts(context.Background(), bl, 4, 16, Options{Budget: 2})
	if err != nil {
		t.Fatal(err)
	}
	if a.Evaluated >= full.Evaluated {
		t.Errorf("budget 2: evaluated %d, want fewer than the unbounded %d", a.Evaluated, full.Evaluated)
	}
	if a.Best.Sim == nil {
		t.Fatal("budget-truncated search returned no plan")
	}
	b, err := PlanDepthOpts(context.Background(), bl, 4, 16, Options{Budget: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !a.Best.Partition.Equal(b.Best.Partition) || a.Evaluated != b.Evaluated {
		t.Errorf("budget truncation not deterministic: (%v, %d) vs (%v, %d)",
			a.Best.Partition, a.Evaluated, b.Best.Partition, b.Evaluated)
	}

	// Across depths, a budget of one candidate is spent by the first seed,
	// so every depth the search does not prune evaluates exactly its seed.
	cluster := config.DefaultCluster()
	run := config.Run{MicroBatch: 32, GlobalBatch: 128, Checkpoint: true}
	var specs [2]*plan.Spec
	var works [2]workCounts
	for i := range specs {
		reg := obs.NewRegistry()
		spec, bl, err := PlanClusterOpts(context.Background(), config.GPT2_762M(), run, cluster, Options{Budget: 1, Obs: reg})
		if err != nil {
			t.Fatal(err)
		}
		counters := reg.Snapshot().Counters
		searched := 0
		for p := 1; p <= cluster.NumGPUs && p <= bl.Len(); p++ {
			if cluster.NumGPUs%p != 0 {
				continue
			}
			if n, ok := counters[fmt.Sprintf("planner.p%d.candidates", p)]; ok {
				searched++
				if n != 1 {
					t.Errorf("cluster budget 1: depth %d evaluated %g candidates, want only its seed", p, n)
				}
			}
		}
		if spec.Evaluated != searched || searched < 2 {
			t.Errorf("cluster budget 1: evaluated %d over %d searched depths, want one seed each over at least 2", spec.Evaluated, searched)
		}
		spec.SearchTime = 0
		specs[i], works[i] = spec, readWorkCounts(reg)
	}
	if !reflect.DeepEqual(specs[0], specs[1]) || works[0] != works[1] {
		t.Errorf("cluster budget 1 not deterministic: %+v %v vs %+v %v", *specs[0], works[0], *specs[1], works[1])
	}
}

// TestInfeasibleSearchPublishesTelemetry checks that a search answered with
// ErrInfeasible still publishes its engine-level work: it searched every
// depth it did not prune, and a registry shared with other searches must
// count that work.
func TestInfeasibleSearchPublishesTelemetry(t *testing.T) {
	cluster := config.DefaultCluster()
	cluster.NumGPUs = 4
	run := config.Run{MicroBatch: 32, GlobalBatch: 128, Checkpoint: true}
	reg := obs.NewRegistry()
	if _, _, err := PlanClusterOpts(context.Background(), config.GPT2_1_3B(), run, cluster, Options{Obs: reg}); !errors.Is(err, errdefs.ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
	snap := reg.Snapshot()
	if misses := snap.Counters["planner.engine.cache_misses"]; misses <= 0 {
		t.Errorf("planner.engine.cache_misses = %g, want the candidates the search simulated", misses)
	}
	if _, ok := snap.Gauges["planner.engine.search_s"]; !ok {
		t.Error("planner.engine.search_s is unset")
	}
}

// TestPrunedDepthsPublishNothing checks that a depth pruned by the lower
// bound is not searched at all, not even its seed: every divisor depth
// either publishes its planner.p<d>.* series or counts as pruned.
func TestPrunedDepthsPublishNothing(t *testing.T) {
	cluster := config.DefaultCluster()
	pruned := 0.0
	for _, mbs := range []int{4, 32} {
		run := config.Run{MicroBatch: mbs, GlobalBatch: 128, Checkpoint: true}
		for _, mc := range config.Zoo() {
			reg := obs.NewRegistry()
			_, bl, err := PlanClusterOpts(context.Background(), mc, run, cluster, Options{Obs: reg})
			if err != nil {
				t.Fatalf("%s mbs %d: %v", mc.Name, mbs, err)
			}
			counters := reg.Snapshot().Counters
			silent := 0
			for p := 1; p <= cluster.NumGPUs && p <= bl.Len(); p++ {
				if _, ok := counters[fmt.Sprintf("planner.p%d.candidates", p)]; cluster.NumGPUs%p == 0 && !ok {
					silent++
				}
			}
			if n := counters["planner.engine.depths_pruned"]; n != float64(silent) {
				t.Errorf("%s mbs %d: %g depths pruned, but %d divisor depths publish no candidates", mc.Name, mbs, n, silent)
			}
			pruned += counters["planner.engine.depths_pruned"]
		}
	}
	if pruned == 0 {
		t.Error("no depth was pruned, so the check shows nothing")
	}
}

// TestDepthLowerBoundSound verifies the pruning bound really is a lower
// bound: no searched candidate at any depth may simulate faster than it.
func TestDepthLowerBoundSound(t *testing.T) {
	for _, mc := range config.Zoo() {
		bl := buildSub(t, mc, 4)
		for _, p := range []int{2, 4, 8} {
			m := 2 * p
			lb := depthLowerBound(bl, p, m)
			res, err := PlanDepthOpts(context.Background(), bl, p, m, Options{})
			if err != nil {
				t.Fatalf("%s p=%d: %v", mc.Name, p, err)
			}
			if res.Best.Sim.IterTime < lb-1e-9 {
				t.Errorf("%s p=%d: best %.4f s beats the 'lower bound' %.4f s",
					mc.Name, p, res.Best.Sim.IterTime, lb)
			}
		}
	}
}

// TestPlanClusterPruningMatchesBruteForce compares the engine (with its
// cross-depth pruning) against a brute-force scan that searches every
// divisor depth to completion and scores it the same way, on three
// hand-picked configurations, on plan-cold's 144 (gridConfigs), and on one
// with a depth the simulator rejects, which both drop.
// The two must agree exactly on the depth and the predicted score; where no
// depth's plan fits memory the engine must answer ErrInfeasible.
func TestPlanClusterPruningMatchesBruteForce(t *testing.T) {
	inputs := append([]gridConfig{
		{config.GPT2_345M(), 16, 4, 128},
		{config.GPT2_345M(), 16, 32, 512},
		{config.BERTLarge(), 16, 8, 256},
		// Depth 32 is past the simulator's op cap; both sides drop it.
		{smallVocab, 32, 1, 65536},
	}, gridConfigs()...)
	infeasible, overCap := 0, 0
	for _, tc := range inputs {
		name := fmt.Sprintf("%s gpus=%d mbs=%d gbs=%d", tc.mc.Name, tc.gpus, tc.mbs, tc.gbs)
		cluster := config.DefaultCluster()
		cluster.NumGPUs = tc.gpus
		run := config.Run{MicroBatch: tc.mbs, GlobalBatch: tc.gbs, Checkpoint: true}
		spec, _, err := PlanClusterOpts(context.Background(), tc.mc, run, cluster, Options{})
		if err != nil && !errors.Is(err, errdefs.ErrInfeasible) {
			t.Fatalf("%s: %v", name, err)
		}

		bl := buildSub(t, tc.mc, tc.mbs)
		bestDepth, bestScore := 0, 0.0
		for p := 1; p <= tc.gpus && p <= bl.Len(); p++ {
			if tc.gpus%p != 0 {
				continue
			}
			dp := tc.gpus / p
			m := run.MicroBatches(dp)
			res, err := PlanDepthOpts(context.Background(), bl, p, m, Options{})
			if errors.Is(err, errdefs.ErrBadConfig) {
				overCap++
				continue
			}
			if err != nil {
				t.Fatalf("%s p=%d: %v", name, p, err)
			}
			if ok, _ := memory.Fits(bl, res.Best.Partition, m, memory.OneFOneB, 1, cluster.Device); !ok {
				continue
			}
			score := res.Best.Sim.IterTime
			var ar float64
			for _, params := range res.Best.Partition.StageParams(bl) {
				if v := cost.AllReduceTime(params*4, dp, cluster.Network); v > ar {
					ar = v
				}
			}
			score += ar
			if bestDepth == 0 || score < bestScore {
				bestDepth, bestScore = p, score
			}
		}
		if bestDepth == 0 {
			infeasible++
			if err == nil {
				t.Errorf("%s: brute force finds no fitting depth, engine chose depth %d", name, spec.Depth())
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: brute force chose depth %d, engine: %v", name, bestDepth, err)
			continue
		}
		if spec.Depth() != bestDepth {
			t.Errorf("%s: engine chose depth %d, brute force depth %d", name, spec.Depth(), bestDepth)
		}
		if spec.Predicted != bestScore {
			t.Errorf("%s: engine predicted %v s, brute force %v s", name, spec.Predicted, bestScore)
		}
	}
	if infeasible != 3 {
		t.Errorf("%d infeasible configurations, want the grid's 3 (GPT-2 1.3B, 4 GPUs, mbs 32)", infeasible)
	}
	if overCap != 1 {
		t.Errorf("%d depths rejected by the simulator, want 1 (small-vocab depth 32)", overCap)
	}
}

// TestSimCacheDedup checks the depth's candidate map: repeated evaluations
// of the same partition simulate and count it once, report it new only the
// first time, and return the same summary.
func TestSimCacheDedup(t *testing.T) {
	bl := buildSub(t, config.GPT2_345M(), 4)
	e := newEngine(bl, Options{})
	d := newDepthState(4, 0, 8)
	part, err := partitionOf(bl.Len(), 4)
	if err != nil {
		t.Fatal(err)
	}
	first, fresh, err := e.eval(d, part)
	if err != nil {
		t.Fatal(err)
	}
	if first.sum.IterTime <= 0 || !fresh {
		t.Fatalf("first evaluation (%+v, new %v), want a positive iteration time and new", first.sum, fresh)
	}
	for i := 1; i < 16; i++ {
		c, fresh, err := e.eval(d, part)
		if err != nil {
			t.Fatal(err)
		}
		if c.sum != first.sum {
			t.Fatal("cache returned distinct results for the same key")
		}
		if fresh {
			t.Fatalf("evaluation %d reported a cached partition as new", i+1)
		}
	}
	if d.tel.Candidates != 1 {
		t.Errorf("candidates = %d, want 1 (counted once)", d.tel.Candidates)
	}
	if e.misses != 1 {
		t.Errorf("misses = %d, want 1 (single computation)", e.misses)
	}
	if e.hits != 15 {
		t.Errorf("hits = %d, want 15", e.hits)
	}
}

func partitionOf(n, p int) (partition.Partition, error) {
	bounds := make([]int, p+1)
	for i := range bounds {
		bounds[i] = i * n / p
	}
	return partition.New(bounds, n)
}
