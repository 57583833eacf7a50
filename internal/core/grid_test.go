package core

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"autopipe/internal/config"
	"autopipe/internal/errdefs"
	"autopipe/internal/memory"
	"autopipe/internal/obs"
	"autopipe/internal/plan"
	"autopipe/internal/slicer"
)

// gridPlan plans one configuration of the plan-cold grid and renders the
// outcome as one golden line: the configuration, then the plan (bounds,
// stage devices, sliced count, candidates evaluated and accepted, predicted
// score with its exact float) and the search's work counts, or
// "infeasible" for a typed ErrInfeasible answer.
func gridPlan(mc config.Model, gpus, mbs, gbs int) (string, error) {
	cluster := config.DefaultCluster()
	cluster.NumGPUs = gpus
	run := config.Run{MicroBatch: mbs, GlobalBatch: gbs, Checkpoint: true}
	line := fmt.Sprintf("%q gpus=%d mbs=%d gbs=%d", mc.Name, gpus, mbs, gbs)
	reg := obs.NewRegistry()
	spec, _, err := PlanClusterOpts(context.Background(), mc, run, cluster, Options{Obs: reg})
	if errors.Is(err, errdefs.ErrInfeasible) {
		return line + " infeasible", nil
	}
	if err != nil {
		return "", fmt.Errorf("%s: %w", line, err)
	}
	w := readWorkCounts(reg)
	return fmt.Sprintf("%s bounds=%v devices=%v sliced=%d evaluated=%d accepted=%d predicted=%s hits=%g misses=%g pruned=%g",
		line, spec.Partition.Bounds, spec.StageDevices, spec.NumSliced, spec.Evaluated, spec.Accepted,
		strconv.FormatFloat(spec.Predicted, 'g', -1, 64), w.hits, w.misses, w.pruned), nil
}

// gridConfig is one plan-cold configuration.
type gridConfig struct {
	mc             config.Model
	gpus, mbs, gbs int
}

// gridConfigs returns plan-cold's 144 configurations in the order of
// testdata/grid_plans.txt: the zoo × GPUs {4, 8, 16} × micro-batch
// {4, 8, 16, 32} × global batch {128, 256, 512}.
func gridConfigs() []gridConfig {
	var out []gridConfig
	for _, mc := range config.Zoo() {
		for _, gpus := range []int{4, 8, 16} {
			for _, mbs := range []int{4, 8, 16, 32} {
				for _, gbs := range []int{128, 256, 512} {
					out = append(out, gridConfig{mc, gpus, mbs, gbs})
				}
			}
		}
	}
	return out
}

// TestEngineMatchesRecordedGrid widens TestEngineMatchesRecordedPlans to
// plan-cold's 144 configurations. Every plan and the work that found it
// must equal the line recorded in testdata/grid_plans.txt.
func TestEngineMatchesRecordedGrid(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "grid_plans.txt"))
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	grid := gridConfigs()
	if len(want) != len(grid) {
		t.Errorf("golden file has %d lines, want %d", len(want), len(grid))
	}
	for i, gc := range grid {
		got, err := gridPlan(gc.mc, gc.gpus, gc.mbs, gc.gbs)
		if err != nil {
			t.Fatal(err)
		}
		if i >= len(want) {
			t.Fatalf("golden file ends after %d lines; next config:\n%s", i, got)
		}
		if got != want[i] {
			t.Errorf("line %d:\n got %s\nwant %s", i+1, got, want[i])
		}
	}
}

// TestPlannerDepthIsExecutorBest is the executor oracle for the depth
// choice. On every plan-cold configuration it builds each divisor depth's
// PlanDepthOpts winner, pruned depths included, sizes its slicing with
// Algorithm 2, keeps the winners that fit memory, and runs each through
// plan.Evaluate: the executor, launch overhead and gradient all-reduce.
// PlanClusterOpts's depth must be the executor-best one, exact ties going to
// the shallower depth, and Evaluate must report no failure on the returned
// plan. Where the planner answers ErrInfeasible, no winner may fit.
func TestPlannerDepthIsExecutorBest(t *testing.T) {
	ctx := context.Background()
	answered := 0
	for _, gc := range gridConfigs() {
		name := fmt.Sprintf("%s gpus=%d mbs=%d gbs=%d", gc.mc.Name, gc.gpus, gc.mbs, gc.gbs)
		cluster := config.DefaultCluster()
		cluster.NumGPUs = gc.gpus
		run := config.Run{MicroBatch: gc.mbs, GlobalBatch: gc.gbs, Checkpoint: true}
		spec, _, planErr := PlanClusterOpts(ctx, gc.mc, run, cluster, Options{})
		if planErr != nil && !errors.Is(planErr, errdefs.ErrInfeasible) {
			t.Fatalf("%s: %v", name, planErr)
		}

		bl := buildSub(t, gc.mc, gc.mbs)
		bestDepth, bestIter := 0, 0.0
		for p := 1; p <= gc.gpus && p <= bl.Len(); p++ {
			if gc.gpus%p != 0 {
				continue
			}
			dp := gc.gpus / p
			m := run.MicroBatches(dp)
			res, err := PlanDepthOpts(ctx, bl, p, m, Options{})
			if err != nil {
				t.Fatalf("%s p=%d: %v", name, p, err)
			}
			if ok, _ := memory.Fits(bl, res.Best.Partition, m, memory.OneFOneB, 1, cluster.Device); !ok {
				continue
			}
			cand := &plan.Spec{Partition: res.Best.Partition, StageDevices: make([]int, p)}
			for i := range cand.StageDevices {
				cand.StageDevices[i] = dp
			}
			if p > 1 {
				sp, err := slicer.SolveProfile(cand.Partition.Profile(bl, m))
				if err != nil {
					t.Fatalf("%s p=%d: %v", name, p, err)
				}
				cand.NumSliced = sp.NumSliced
			}
			r, err := plan.Evaluate(cand, bl, run, cluster)
			if err != nil {
				t.Fatalf("%s p=%d: %v", name, p, err)
			}
			if err := r.Failure(); err != nil {
				t.Errorf("%s p=%d: the winner fits memory, but the executor reports %v", name, p, err)
				continue
			}
			if bestDepth == 0 || r.IterTime < bestIter {
				bestDepth, bestIter = p, r.IterTime
			}
		}

		if planErr != nil {
			if bestDepth != 0 {
				t.Errorf("%s: the planner answers %v, but depth %d's winner fits and runs in %v s", name, planErr, bestDepth, bestIter)
			}
			continue
		}
		answered++
		r, err := plan.Evaluate(spec, bl, run, cluster)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := r.Failure(); err != nil {
			t.Errorf("%s: the executor reports %v on the returned plan", name, err)
		}
		if spec.Depth() != bestDepth {
			t.Errorf("%s: the planner chose depth %d (executor %v s), the executor-best depth is %d (%v s)",
				name, spec.Depth(), r.IterTime, bestDepth, bestIter)
		}
	}
	t.Logf("%d answered configurations checked", answered)
}
