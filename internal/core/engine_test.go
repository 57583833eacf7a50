package core

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"autopipe/internal/config"
	"autopipe/internal/cost"
	"autopipe/internal/errdefs"
	"autopipe/internal/memory"
	"autopipe/internal/obs"
	"autopipe/internal/partition"
	"autopipe/internal/plan"
)

// withProcs sets GOMAXPROCS, and with it the engine's worker-pool width, to
// w until the test ends.
func withProcs(t *testing.T, w int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(w)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// workCounts are the search's deterministic work counters, as the engine
// publishes them.
type workCounts struct {
	hits, misses, pruned float64
}

func readWorkCounts(reg *obs.Registry) workCounts {
	c := reg.Snapshot().Counters
	return workCounts{c["planner.engine.cache_hits"], c["planner.engine.cache_misses"], c["planner.engine.depths_pruned"]}
}

// TestEngineDeterministicAcrossParallelism is the engine's core contract:
// the plan must be byte-identical at every worker-pool width, for every zoo
// model, and so must the work that found it: the candidates evaluated and
// accepted, the simulation-cache hits and misses, and the depths pruned.
// Wall-clock fields are zeroed before comparing — they are the only fields
// allowed to differ.
func TestEngineDeterministicAcrossParallelism(t *testing.T) {
	cluster := config.DefaultCluster()
	run := config.Run{MicroBatch: 4, GlobalBatch: 512, Checkpoint: true}
	for _, mc := range config.Zoo() {
		var (
			ref     *plan.Spec
			refWork workCounts
		)
		for _, w := range []int{1, 2, 4} {
			withProcs(t, w)
			reg := obs.NewRegistry()
			spec, _, err := PlanClusterOpts(context.Background(), mc, run, cluster, Options{Obs: reg})
			if err != nil {
				t.Fatalf("%s width %d: %v", mc.Name, w, err)
			}
			spec.SearchTime = 0
			work := readWorkCounts(reg)
			if ref == nil {
				ref, refWork = spec, work
				continue
			}
			if !reflect.DeepEqual(ref, spec) {
				t.Errorf("%s: plan differs between width 1 and %d:\n%+v\nvs\n%+v", mc.Name, w, ref, spec)
			}
			if work != refWork {
				t.Errorf("%s: work counts (hits, misses, pruned) %v at width %d, want %v as at width 1",
					mc.Name, work, w, refWork)
			}
		}
	}
}

// TestPlanDepthOptsDeterministicTelemetry pins down that not only the best
// partition but the entire search trajectory (candidate counts, convergence
// curve, cache hits and misses) is independent of the worker-pool width.
func TestPlanDepthOptsDeterministicTelemetry(t *testing.T) {
	bl := buildSub(t, config.GPT2_762M(), 4)
	var (
		base     *PlanResult
		baseWork workCounts
	)
	for _, w := range []int{1, 2, 4} {
		withProcs(t, w)
		reg := obs.NewRegistry()
		res, err := PlanDepthOpts(context.Background(), bl, 4, 16, Options{Obs: reg})
		if err != nil {
			t.Fatalf("width %d: %v", w, err)
		}
		work := readWorkCounts(reg)
		if base == nil {
			base, baseWork = res, work
			continue
		}
		if !res.Best.Partition.Equal(base.Best.Partition) {
			t.Errorf("width %d: best partition %v, want %v", w, res.Best.Partition, base.Best.Partition)
		}
		if res.Telemetry.Candidates != base.Telemetry.Candidates ||
			res.Telemetry.Accepted != base.Telemetry.Accepted {
			t.Errorf("width %d: telemetry (%d, %d), want (%d, %d)", w,
				res.Telemetry.Candidates, res.Telemetry.Accepted,
				base.Telemetry.Candidates, base.Telemetry.Accepted)
		}
		if !reflect.DeepEqual(res.Telemetry.Convergence, base.Telemetry.Convergence) {
			t.Errorf("width %d: convergence curve differs", w)
		}
		if work != baseWork {
			t.Errorf("width %d: work counts (hits, misses, pruned) %v, want %v as at width 1", w, work, baseWork)
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

// TestRunTasksStopsOnCancel pins the worker pool's cancellation path: once
// the context is cancelled, workers drain the remaining indices without
// running them. Task 10 cancels, and every later task waits for that cancel
// before it counts, so a later task runs only if its worker had already
// passed the ctx check: at most one per other worker.
func TestRunTasksStopsOnCancel(t *testing.T) {
	for _, width := range []int{1, 2, 4, 8} {
		ctx, cancel := context.WithCancel(context.Background())
		cancelled := make(chan struct{})
		var ran atomic.Int64
		runTasks(ctx, width, 1000, func(_, i int) {
			switch {
			case i == 10:
				cancel()
				close(cancelled)
			case i > 10:
				<-cancelled
			}
			ran.Add(1)
		})
		cancel()
		if got, limit := ran.Load(), int64(11+width); got > limit {
			t.Errorf("width %d: %d tasks ran, want at most %d once task 10 cancels", width, got, limit)
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
	withProcs(t, 4)
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

// TestSimCacheDedup checks the memoization layer: concurrent evaluations of
// the same partition compute once and share the result.
func TestSimCacheDedup(t *testing.T) {
	bl := buildSub(t, config.GPT2_345M(), 4)
	e := newEngine(bl, Options{})
	part, err := partitionOf(bl.Len(), 4)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan scored, 16)
	for i := 0; i < 16; i++ {
		go func() {
			w := newWorker(bl)
			c, err := e.cache.eval(&w, bl, part, part.Key(), 8)
			if err != nil {
				t.Error(err)
			}
			done <- c
		}()
	}
	first := <-done
	if first.sum.IterTime <= 0 {
		t.Fatalf("cached summary %+v, want a positive iteration time", first.sum)
	}
	for i := 1; i < 16; i++ {
		c := <-done
		if c.sum != first.sum {
			t.Fatal("cache returned distinct results for the same key")
		}
	}
	if got := e.cache.misses.Load(); got != 1 {
		t.Errorf("misses = %d, want 1 (single computation)", got)
	}
	if got := e.cache.hits.Load(); got != 15 {
		t.Errorf("hits = %d, want 15", got)
	}
}

func partitionOf(n, p int) (partition.Partition, error) {
	bounds := make([]int, p+1)
	for i := range bounds {
		bounds[i] = i * n / p
	}
	return partition.New(bounds, n)
}
