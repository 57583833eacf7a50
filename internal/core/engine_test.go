package core

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"

	"autopipe/internal/config"
	"autopipe/internal/cost"
	"autopipe/internal/errdefs"
	"autopipe/internal/memory"
	"autopipe/internal/partition"
)

// TestEngineDeterministicAcrossParallelism is the engine's core contract:
// the plan must be byte-identical at every worker-pool size, for every zoo
// model. Wall-clock fields are zeroed before comparing — they are the only
// fields allowed to differ.
func TestEngineDeterministicAcrossParallelism(t *testing.T) {
	widths := []int{1, 4, runtime.GOMAXPROCS(0)}
	cluster := config.DefaultCluster()
	run := config.Run{MicroBatch: 4, GlobalBatch: 512, Checkpoint: true}
	for _, mc := range config.Zoo() {
		var specs []plan0
		for _, w := range widths {
			spec, _, err := PlanClusterOpts(context.Background(), mc, run, cluster, Options{Parallelism: w})
			if err != nil {
				t.Fatalf("%s parallelism %d: %v", mc.Name, w, err)
			}
			spec.SearchTime = 0
			specs = append(specs, plan0{w, spec})
		}
		for _, s := range specs[1:] {
			if !reflect.DeepEqual(specs[0].spec, s.spec) {
				t.Errorf("%s: plan differs between parallelism %d and %d:\n%+v\nvs\n%+v",
					mc.Name, specs[0].width, s.width, specs[0].spec, s.spec)
			}
		}
	}
}

type plan0 struct {
	width int
	spec  interface{}
}

// TestPlanDepthOptsDeterministicTelemetry pins down that not only the best
// partition but the entire search trajectory (candidate counts, convergence
// curve) is parallelism-independent.
func TestPlanDepthOptsDeterministicTelemetry(t *testing.T) {
	bl := buildSub(t, config.GPT2_762M(), 4)
	var base *PlanResult
	for _, w := range []int{1, 3, 8} {
		res, err := PlanDepthOpts(context.Background(), bl, 4, 16, Options{Parallelism: w})
		if err != nil {
			t.Fatalf("parallelism %d: %v", w, err)
		}
		if base == nil {
			base = res
			continue
		}
		if !res.Best.Partition.Equal(base.Best.Partition) {
			t.Errorf("parallelism %d: best partition %v, want %v", w, res.Best.Partition, base.Best.Partition)
		}
		if res.Telemetry.Candidates != base.Telemetry.Candidates ||
			res.Telemetry.Accepted != base.Telemetry.Accepted {
			t.Errorf("parallelism %d: telemetry (%d, %d), want (%d, %d)", w,
				res.Telemetry.Candidates, res.Telemetry.Accepted,
				base.Telemetry.Candidates, base.Telemetry.Accepted)
		}
		if !reflect.DeepEqual(res.Telemetry.Convergence, base.Telemetry.Convergence) {
			t.Errorf("parallelism %d: convergence curve differs", w)
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
	b, err := PlanDepthOpts(context.Background(), bl, 4, 16, Options{Budget: 2, Parallelism: 7})
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
			res, err := PlanDepthOpts(context.Background(), bl, p, m, Options{Parallelism: 1})
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
			res, err := PlanDepthOpts(context.Background(), bl, p, m, Options{Parallelism: 1})
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

// TestPrefetchDoesNotChangeResults forces the speculative cache-warming path
// (normally gated on spare cores) and checks the search result and telemetry
// are identical to the plain engine's — speculation must only ever touch the
// cache.
func TestPrefetchDoesNotChangeResults(t *testing.T) {
	bl := buildSub(t, config.GPT2_762M(), 4)
	plain, err := PlanDepthOpts(context.Background(), bl, 4, 16, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	e := newEngine(bl, Options{Parallelism: 4})
	e.prefetch = true
	d := &depthState{p: 4, m: 16, seen: make(map[string]bool)}
	if err := e.run(context.Background(), []*depthState{d}, nil, nil); err != nil {
		t.Fatal(err)
	}
	if !d.best.part.Equal(plain.Best.Partition) {
		t.Errorf("prefetch changed the best partition: %v vs %v", d.best.part, plain.Best.Partition)
	}
	if d.tel.Candidates != plain.Telemetry.Candidates || d.tel.Accepted != plain.Telemetry.Accepted {
		t.Errorf("prefetch changed telemetry: (%d, %d) vs (%d, %d)",
			d.tel.Candidates, d.tel.Accepted, plain.Telemetry.Candidates, plain.Telemetry.Accepted)
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
