// Deep pipeline: the scenario that motivates the AutoPipe Slicer. At twelve
// stages the pipeline startup overhead is a significant fraction of the
// iteration, and BERT-large's pooler-heavy tail makes Megatron-LM's even
// partition unbalanced. This example walks the four methods of the paper's
// Fig. 10/14 across depths and prints iteration time and startup overhead.
//
//	go run ./examples/deep_pipeline
package main

import (
	"context"
	"fmt"
	"log"

	"autopipe"
	"autopipe/internal/baselines/megatron"
	"autopipe/internal/experiments"
)

func main() {
	model := autopipe.BERTLarge()
	cluster := autopipe.DefaultCluster()
	env := experiments.Env{Cluster: cluster}

	fmt.Printf("%s, micro-batch 16, micro-batches = 2 x depth\n\n", model.Name)
	fmt.Printf("%6s  %12s  %12s  %12s  %12s  %8s\n",
		"depth", "Megatron", "Slicer", "Planner", "AutoPipe", "speedup")
	for _, depth := range []int{2, 4, 8, 12} {
		pt, err := env.ComparePoint(model, depth, 16, 2*depth)
		if err != nil {
			log.Fatal(err)
		}
		res := pt.Results
		mega := res[experiments.SeriesMegatron]
		auto := res[experiments.SeriesAutoPipe]
		fmt.Printf("%6d  %10.1fms  %10.1fms  %10.1fms  %10.1fms  %7.2fx\n",
			depth,
			mega.IterTime*1e3,
			res[experiments.SeriesSlicer].IterTime*1e3,
			res[experiments.SeriesPlanner].IterTime*1e3,
			auto.IterTime*1e3,
			mega.IterTime/auto.IterTime)
	}

	// Zoom into the 12-stage pipeline: where does the win come from?
	const depth, mbs = 12, 16
	blocks, err := autopipe.Build(model, mbs, cluster)
	if err != nil {
		log.Fatal(err)
	}
	even, err := megatron.EvenPartition(blocks, depth)
	if err != nil {
		log.Fatal(err)
	}
	pr, err := autopipe.NewPlanner().PlanDepth(context.Background(), blocks, depth, 2*depth)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nat %d stages:\n", depth)
	fmt.Printf("  even partition imbalance (stddev): %.2f ms\n", even.Imbalance(blocks)*1e3)
	fmt.Printf("  planner imbalance (stddev):        %.2f ms\n", pr.Best.Partition.Imbalance(blocks)*1e3)
	fmt.Printf("  planner layer counts: %v\n", pr.Best.Partition.LayerCounts(blocks))
	sp, err := autopipe.SliceProfile(autopipe.Profile(pr.Best.Partition, blocks, 2*depth))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  Algorithm 2 slices %d warmup micro-batch(es) to halve the startup\n", sp.NumSliced)
}
