//go:build !race

package core

import (
	"context"
	"testing"

	"autopipe/internal/config"
	"autopipe/internal/obs"
)

// planSearchAllocs is the allocation count of one full plan search for
// GPT-2 345M on 8 GPUs with an observer registry, measured with go1.24 on
// linux/amd64.
const planSearchAllocs = 177

// TestPlanSearchAllocsPinned pins the allocations of the paper's Fig. 12
// workload: one PlanClusterOpts call (Algorithm 1 seed, master-stage moves,
// memory check, slicing) for GPT-2 345M on 8 GPUs, mbs 4, gbs 128, with
// checkpointing. The search is serial, so the count does not depend on the
// machine's core count. The search must also assess exactly 22 candidates,
// so a change that moves the count by doing different work shows as such.
// (The race detector's instrumentation changes allocation counts, so -race
// skips this file.)
func TestPlanSearchAllocsPinned(t *testing.T) {
	cluster := config.DefaultCluster()
	cluster.NumGPUs = 8
	run := config.Run{MicroBatch: 4, GlobalBatch: 128, Checkpoint: true}
	opts := Options{Obs: obs.NewRegistry()}
	ctx := context.Background()
	n := testing.AllocsPerRun(100, func() {
		spec, _, err := PlanClusterOpts(ctx, config.GPT2_345M(), run, cluster, opts)
		if err != nil {
			t.Fatal(err)
		}
		if spec.Evaluated != 22 {
			t.Fatalf("plan search assessed %d candidates, want 22", spec.Evaluated)
		}
	})
	t.Logf("plan search gpt2-345m g8: %v allocs/op", n)
	if n > planSearchAllocs {
		t.Errorf("plan search gpt2-345m g8: %v allocs/op, pinned at %d", n, planSearchAllocs)
	}
}

// TestEvalCacheHitAllocationFree pins a candidate-map hit at zero
// allocations: the lookup key is built on the stack.
func TestEvalCacheHitAllocationFree(t *testing.T) {
	bl := buildSub(t, config.GPT2_762M(), 4)
	e := newEngine(bl, Options{})
	d := newDepthState(16, 1, 128)
	part, err := partitionOf(bl.Len(), 16)
	if err != nil {
		t.Fatal(err)
	}
	first, _, err := e.eval(d, part)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		c, _, err := e.eval(d, part)
		if err != nil || c.sum != first.sum {
			t.Fatalf("hit = (%+v, %v), want the first summary %+v", c.sum, err, first.sum)
		}
	}); n != 0 {
		t.Errorf("engine.eval on a hit: %v allocs/op, want 0", n)
	}
	if e.misses != 1 {
		t.Errorf("misses = %d, want 1", e.misses)
	}
}
