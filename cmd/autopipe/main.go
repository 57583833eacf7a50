// Command autopipe plans a pipeline-parallel training configuration: it runs
// the AutoPipe Planner (balanced sub-layer partitioning) and Slicer
// (warmup micro-batch slicing) for a benchmark model and prints the plan,
// per-stage breakdown, and the simulated iteration time versus the
// Megatron-LM even partition.
//
// Usage:
//
//	autopipe -model gpt2-345m -gpus 4 -mbs 4 -gbs 128 \
//	         [-timeout 30s] [-json plan.json]
//
// Each plan search runs serially on one goroutine, so the plan does not
// depend on the machine's core count.
package main

import (
	"flag"
	"fmt"
	"os"

	"autopipe"
	"autopipe/internal/baselines/megatron"
	"autopipe/internal/cliutil"
	"autopipe/internal/config"
	"autopipe/internal/memory"
	"autopipe/internal/plan"
)

func main() {
	modelName := flag.String("model", "gpt2-345m", "model: gpt2-345m, gpt2-762m, gpt2-1.3b, bert-large")
	gpus := flag.Int("gpus", 4, "total number of GPUs")
	mbs := flag.Int("mbs", 4, "micro-batch size")
	gbs := flag.Int("gbs", 128, "global batch size")
	jsonPath := flag.String("json", "", "write the plan as JSON to this path")
	pf := cliutil.RegisterPlanner(flag.CommandLine)
	prof := cliutil.RegisterProfile(flag.CommandLine)
	flag.Parse()

	stopProf, err := prof.Start()
	if err != nil {
		fail(err)
	}

	mc, err := config.ModelByName(*modelName)
	if err != nil {
		fail(err)
	}
	cluster := config.DefaultCluster()
	cluster.NumGPUs = *gpus
	run := config.Run{MicroBatch: *mbs, GlobalBatch: *gbs, Checkpoint: true}

	ctx, cancel := pf.Context()
	defer cancel()
	spec, bl, err := autopipe.NewPlanner().Plan(ctx, mc, run, cluster)
	if err != nil {
		fail(err)
	}
	res, err := plan.Evaluate(spec, bl, run, cluster)
	if err != nil {
		fail(err)
	}

	fmt.Printf("AutoPipe plan for %s on %d GPUs (mbs=%d, gbs=%d)\n\n", mc.Name, *gpus, *mbs, *gbs)
	fmt.Printf("pipeline depth:    %d\n", spec.Depth())
	fmt.Printf("data parallelism:  %d\n", spec.DataParallel())
	fmt.Printf("micro-batches:     %d per iteration\n", res.Micro)
	fmt.Printf("sliced warmup:     %d micro-batch(es)\n", spec.NumSliced)
	fmt.Printf("planning time:     %v (%d schemes assessed, %d improved the incumbent)\n", spec.SearchTime, spec.Evaluated, spec.Accepted)
	fmt.Printf("predicted iter:    %.1f ms (slicer: %d round(s), converged %v)\n\n",
		spec.Predicted*1e3, spec.SliceRounds, spec.SliceConverged)
	fmt.Print(spec.Partition.Describe(bl))
	for s := 0; s < spec.Depth(); s++ {
		e := memory.StageEstimate(bl, spec.Partition, s, res.Micro, memory.OneFOneB, 1)
		fmt.Printf("memory %v\n", e)
	}

	if res.Err != "" {
		fmt.Printf("\nevaluation: %s\n", res.Err)
		os.Exit(1)
	}
	fmt.Printf("\niteration time:    %.1f ms (startup %.1f ms, all-reduce %.1f ms)\n",
		res.IterTime*1e3, res.Startup*1e3, res.AllReduce*1e3)

	// Reference: Megatron-LM even layer division at the same depth, when the
	// depth divides the layer count.
	if even, err := megatron.EvenPartition(bl, spec.Depth()); err == nil {
		ref := &plan.Spec{Planner: "Megatron-LM", Partition: even, StageDevices: spec.StageDevices}
		if rr, err := plan.Evaluate(ref, bl, run, cluster); err == nil && rr.Err == "" {
			fmt.Printf("megatron-lm even:  %.1f ms  (AutoPipe speedup %.2fx)\n",
				rr.IterTime*1e3, rr.IterTime/res.IterTime)
		}
	}
	if *jsonPath != "" {
		if err := config.Save(*jsonPath, spec); err != nil {
			fail(err)
		}
		fmt.Printf("plan written to %s\n", *jsonPath)
	}
	if err := stopProf(); err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "autopipe:", err)
	os.Exit(1)
}
