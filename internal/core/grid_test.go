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
	"autopipe/internal/obs"
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

// TestEngineMatchesRecordedGrid widens TestEngineMatchesRecordedPlans to
// plan-cold's 144 configurations: the zoo × GPUs {4, 8, 16} × micro-batch
// {4, 8, 16, 32} × global batch {128, 256, 512}. Every plan and the work
// that found it must equal the line recorded in testdata/grid_plans.txt.
func TestEngineMatchesRecordedGrid(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "grid_plans.txt"))
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	i := 0
	for _, mc := range config.Zoo() {
		for _, gpus := range []int{4, 8, 16} {
			for _, mbs := range []int{4, 8, 16, 32} {
				for _, gbs := range []int{128, 256, 512} {
					got, err := gridPlan(mc, gpus, mbs, gbs)
					if err != nil {
						t.Fatal(err)
					}
					if i >= len(want) {
						t.Fatalf("golden file ends after %d lines; next config:\n%s", i, got)
					}
					if got != want[i] {
						t.Errorf("line %d:\n got %s\nwant %s", i+1, got, want[i])
					}
					i++
				}
			}
		}
	}
	if i != len(want) {
		t.Errorf("golden file has %d lines, want %d", len(want), i)
	}
}
