// Quickstart: plan GPT-2 345M on four GPUs with AutoPipe and measure the
// result on the simulated testbed.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"autopipe"
)

func main() {
	model := autopipe.GPT2_345M()
	cluster := autopipe.DefaultCluster()
	cluster.NumGPUs = 4
	run := autopipe.Run{MicroBatch: 4, GlobalBatch: 128, Checkpoint: true}

	// The Planner picks the pipeline depth and a balanced sub-layer
	// partition; the Slicer sizes the warmup micro-batch slicing. The search
	// is serial and deterministic — every machine returns the same Spec.
	planner := autopipe.NewPlanner()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	spec, blocks, err := planner.Plan(ctx, model, run, cluster)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("planned %s in %v: %d stage(s) x dp %d, %d sliced micro-batch(es)\n",
		model.Name, spec.SearchTime, spec.Depth(), spec.DataParallel(), spec.NumSliced)
	fmt.Print(spec.Partition.Describe(blocks))

	// Evaluate executes one training iteration on the discrete-event
	// cluster executor (the stand-in for the paper's 16-GPU testbed).
	res, err := autopipe.Evaluate(spec, blocks, run, cluster)
	if err != nil {
		log.Fatal(err)
	}
	if failure := res.Failure(); failure != nil {
		log.Fatalf("plan infeasible: %v", failure)
	}
	fmt.Printf("\niteration: %.1f ms  (startup %.1f ms, all-reduce %.1f ms, %d micro-batches)\n",
		res.IterTime*1e3, res.Startup*1e3, res.AllReduce*1e3, res.Micro)

	// The analytic simulator the Planner searches with agrees with the
	// executed result up to launch overheads (paper Fig. 11).
	if spec.Depth() > 1 {
		sr, err := autopipe.SimulateProfile(autopipe.Profile(spec.Partition, blocks, res.Micro))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("analytic simulator: %.1f ms, master stage %d\n", sr.IterTime*1e3, sr.Master)
	}
}
