package core

import (
	"context"
	"errors"
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

// recordedPlans are the plans and work counts of the pooled engine this
// serial search replaced, recorded for every zoo model on the default
// 16-GPU cluster at mbs 4, gbs 512 (SearchTime zeroed).
var recordedPlans = map[string]struct {
	spec plan.Spec
	work workCounts
}{
	"GPT-2 345M": {plan.Spec{Planner: "AutoPipe", Partition: partition.Partition{Bounds: []int{0, 50}}, StageDevices: []int{16},
		Evaluated: 36, Accepted: 5, Predicted: 6.2657541261864, SliceConverged: true}, workCounts{33, 36, 1}},
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
// runs.
func TestPlanDepthOptsDeterministicTelemetry(t *testing.T) {
	bl := buildSub(t, config.GPT2_762M(), 4)
	const seedIter = 6.982762342196323 // the seed is never beaten here
	wantConv := make([]float64, 30)
	for i := range wantConv {
		wantConv[i] = seedIter
	}
	wantBest := []int{0, 20, 39, 58, 74}
	wantWork := workCounts{31, 30, 0}
	for i := 0; i < 2; i++ {
		reg := obs.NewRegistry()
		res, err := PlanDepthOpts(context.Background(), bl, 4, 16, Options{Obs: reg})
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if !reflect.DeepEqual(res.Best.Partition.Bounds, wantBest) {
			t.Errorf("run %d: best partition %v, want %v", i, res.Best.Partition.Bounds, wantBest)
		}
		if res.Telemetry.Candidates != 30 || res.Telemetry.Accepted != 1 {
			t.Errorf("run %d: telemetry (%d, %d), want (30, 1)", i, res.Telemetry.Candidates, res.Telemetry.Accepted)
		}
		if !reflect.DeepEqual(res.Telemetry.Convergence, wantConv) {
			t.Errorf("run %d: convergence curve %v, want %v", i, res.Telemetry.Convergence, wantConv)
		}
		if work := readWorkCounts(reg); work != wantWork {
			t.Errorf("run %d: work counts (hits, misses, pruned) %v, want %v", i, work, wantWork)
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
		d := newDepthState(4, 0, 16)
		err := e.run(newFlipCtx(k), []*depthState{d}, nil, nil)
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
// divisor depth to completion and scores it the same way.
func TestPlanClusterPruningMatchesBruteForce(t *testing.T) {
	cluster := config.DefaultCluster()
	for _, tc := range []struct {
		mc  config.Model
		mbs int
		gbs int
	}{
		{config.GPT2_345M(), 4, 128},
		{config.GPT2_345M(), 32, 512},
		{config.BERTLarge(), 8, 256},
	} {
		run := config.Run{MicroBatch: tc.mbs, GlobalBatch: tc.gbs, Checkpoint: true}
		spec, bl, err := PlanClusterOpts(context.Background(), tc.mc, run, cluster, Options{})
		if err != nil {
			t.Fatalf("%s mbs=%d: %v", tc.mc.Name, tc.mbs, err)
		}

		bestDepth, bestScore := 0, 0.0
		for p := 1; p <= cluster.NumGPUs && p <= bl.Len(); p++ {
			if cluster.NumGPUs%p != 0 {
				continue
			}
			dp := cluster.NumGPUs / p
			m := run.MicroBatches(dp)
			res, err := PlanDepthOpts(context.Background(), bl, p, m, Options{})
			if err != nil {
				t.Fatalf("%s p=%d: %v", tc.mc.Name, p, err)
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
		if spec.Depth() != bestDepth {
			t.Errorf("%s mbs=%d: engine chose depth %d, brute force depth %d", tc.mc.Name, tc.mbs, spec.Depth(), bestDepth)
		}
		if diff := spec.Predicted - bestScore; diff > 1e-12 || diff < -1e-12 {
			t.Errorf("%s mbs=%d: engine predicted %.6f s, brute force %.6f s", tc.mc.Name, tc.mbs, spec.Predicted, bestScore)
		}
	}
}

// TestSimCacheDedup checks the depth's candidate map: repeated evaluations
// of the same partition simulate once and return the same summary.
func TestSimCacheDedup(t *testing.T) {
	bl := buildSub(t, config.GPT2_345M(), 4)
	e := newEngine(bl, Options{})
	d := newDepthState(4, 0, 8)
	part, err := partitionOf(bl.Len(), 4)
	if err != nil {
		t.Fatal(err)
	}
	first, err := e.eval(d, part)
	if err != nil {
		t.Fatal(err)
	}
	if first.sum.IterTime <= 0 {
		t.Fatalf("cached summary %+v, want a positive iteration time", first.sum)
	}
	for i := 1; i < 16; i++ {
		c, err := e.eval(d, part)
		if err != nil {
			t.Fatal(err)
		}
		if c.sum != first.sum {
			t.Fatal("cache returned distinct results for the same key")
		}
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
