// Package plan defines the common representation of a pipeline plan — the
// output format shared by the AutoPipe Planner and the DAPPLE and Piper
// baselines — and the evaluator that measures a plan's iteration time on the
// discrete-event executor, the reproduction's equivalent of "applying the
// corresponding algorithm's results to Megatron-LM" (paper §IV-D).
package plan

import (
	"fmt"
	"strings"
	"time"

	"autopipe/internal/config"
	"autopipe/internal/cost"
	"autopipe/internal/errdefs"
	"autopipe/internal/exec"
	"autopipe/internal/memory"
	"autopipe/internal/model"
	"autopipe/internal/partition"
	"autopipe/internal/schedule"
)

// Spec is a complete pipeline-parallel plan.
type Spec struct {
	// Planner names the algorithm that produced the plan.
	Planner string
	// Partition is the stage partition over the planning block array.
	Partition partition.Partition
	// StageDevices is the number of devices serving each stage. AutoPipe and
	// Piper replicate whole pipelines (uniform counts); DAPPLE assigns
	// per-stage replica counts.
	StageDevices []int
	// MicroShard selects DAPPLE's replication semantics: each micro-batch's
	// samples are sharded across a stage's replicas (so replicas > samples
	// is a runtime error). When false, replicas form independent pipelines
	// that split the micro-batch stream (Megatron-style data parallelism).
	MicroShard bool
	// RoundRobin selects Piper's replication semantics: one logical pipeline
	// in which a stage's replicas take alternate micro-batches, so a stage
	// with d replicas has d× the throughput at full per-micro-batch latency.
	// The evaluator approximates it by scaling stage times by 1/d.
	RoundRobin bool
	// NumSliced is the number of warmup micro-batches the AutoPipe Slicer
	// splits (0 = plain 1F1B).
	NumSliced int
	// SearchTime and Evaluated record planning effort (paper Fig. 12).
	SearchTime time.Duration
	Evaluated  int
	// Accepted counts search candidates that improved the incumbent across
	// all depths, and Predicted is the planner's best predicted iteration
	// time in seconds (simulated pipeline plus gradient all-reduce) —
	// together with Evaluated these form the planner-telemetry record.
	Accepted  int
	Predicted float64
	// SliceRounds and SliceConverged record the Algorithm 2 slicing search
	// for the chosen partition (zero-valued when the plan is depth 1).
	SliceRounds    int
	SliceConverged bool
}

// Depth returns the pipeline depth.
func (s *Spec) Depth() int { return s.Partition.Stages() }

// Devices returns the total device count of the plan: the sum of per-stage
// replica counts (for uniform data parallelism each stage lists dp, so the
// sum is stages×dp, the full pipeline-parallel × data-parallel grid).
func (s *Spec) Devices() int {
	d := 0
	for _, c := range s.StageDevices {
		d += c
	}
	return d
}

// DataParallel returns the uniform replication factor, or 1 if the plan uses
// per-stage replication.
func (s *Spec) DataParallel() int {
	if len(s.StageDevices) == 0 {
		return 1
	}
	d := s.StageDevices[0]
	for _, c := range s.StageDevices {
		if c != d {
			return 1
		}
	}
	return d
}

// Result is the outcome of evaluating a plan.
type Result struct {
	Spec *Spec
	// IterTime is the measured iteration time in seconds, or 0 when Err is
	// set.
	IterTime float64
	// Startup is the measured pipeline startup overhead.
	Startup float64
	// AllReduce is the gradient synchronization time added after the
	// pipeline flush.
	AllReduce float64
	// Micro is the number of micro-batches each pipeline processed.
	Micro int
	// Err explains infeasibility: "OOM" or a runtime error, matching the
	// paper's Table III/IV markers.
	Err string
}

// Failure returns the evaluation outcome as a typed error: nil when the plan
// ran, an error wrapping errdefs.ErrOOM when a stage exceeded device memory,
// and one wrapping errdefs.ErrInfeasible for runtime errors. The Err string
// stays verbatim (the experiment tables print it); Failure is the
// errors.Is-friendly view of the same condition.
func (r *Result) Failure() error {
	switch {
	case r.Err == "":
		return nil
	case strings.HasPrefix(r.Err, "OOM"):
		return fmt.Errorf("%w: %s", errdefs.ErrOOM, r.Err)
	default:
		return fmt.Errorf("%w: %s", errdefs.ErrInfeasible, r.Err)
	}
}

// Evaluate runs the plan for one training iteration of the given run config
// on the executor and returns the iteration time, including the data-parallel
// gradient all-reduce, with OOM and runtime-error detection.
func Evaluate(s *Spec, bl *model.Blocks, run config.Run, cluster config.Cluster) (*Result, error) {
	p := s.Depth()
	if len(s.StageDevices) != p {
		return nil, fmt.Errorf("%w: plan: %d stages but %d device counts", errdefs.ErrBadConfig, p, len(s.StageDevices))
	}
	res := &Result{Spec: s}

	mbs := run.MicroBatch
	switch {
	case s.MicroShard:
		// DAPPLE semantics: one logical pipeline; every micro-batch is
		// sharded across each stage's replicas.
		res.Micro = run.MicroBatches(1)
		for j, d := range s.StageDevices {
			if d > mbs {
				res.Err = fmt.Sprintf("runtime error: stage %d has %d replicas for micro-batch size %d", j, d, mbs)
				return res, nil
			}
		}
	case s.RoundRobin && s.DataParallel() == 1:
		// Piper semantics with uneven replication: one logical pipeline;
		// replicas alternate whole micro-batches.
		res.Micro = run.MicroBatches(1)
	default:
		// Uniform replication — including a uniformly-replicated
		// round-robin plan, which is ordinary data parallelism with
		// independent pipelines.
		res.Micro = run.MicroBatches(s.DataParallel())
	}

	// Memory feasibility, per stage with its effective micro-batch size.
	for j := 0; j < p; j++ {
		eff := mbs
		if s.MicroShard {
			eff = ceilDiv(mbs, s.StageDevices[j])
		}
		jbl := bl
		if eff != bl.Geom.MicroBatch {
			var err error
			jbl, err = bl.Rebuild(eff)
			if err != nil {
				return nil, err
			}
		}
		e := memory.StageEstimate(jbl, s.Partition, j, res.Micro, memory.OneFOneB, 1)
		if e.Total() > cluster.Device.MemoryBytes {
			res.Err = fmt.Sprintf("OOM: stage %d needs %.2f GiB of %.2f GiB", j,
				float64(e.Total())/float64(1<<30), float64(cluster.Device.MemoryBytes)/float64(1<<30))
			return res, nil
		}
	}

	f, b := StageWallTimes(s, bl)
	sched, err := schedule.Sliced(p, res.Micro, s.NumSliced)
	if err != nil {
		return nil, err
	}
	r, err := exec.Run(sched, ExecConfig(f, b, bl, cluster))
	if err != nil {
		return nil, err
	}
	res.Startup = r.Startup
	res.AllReduce = allReduce(s, bl, cluster.Network)
	res.IterTime = r.IterTime + res.AllReduce
	return res, nil
}

// ExecConfig returns the executor setup shared by every run of a plan on the
// simulated testbed: the per-virtual-stage forward/backward times f and b,
// the cross-stage payload (the first block's output activation, which every
// stage boundary of a transformer carries), and the cluster's link and
// kernel-launch costs. Callers add their own fields (jitter, the
// sanitizer, a metrics registry) to the returned value.
func ExecConfig(f, b []float64, bl *model.Blocks, cluster config.Cluster) exec.Config {
	return exec.Config{
		VirtFwd:        f,
		VirtBwd:        b,
		CommBytes:      bl.List[0].OutBytes,
		Network:        cluster.Network,
		KernelOverhead: cluster.Device.KernelOverhead,
	}
}

// StageWallTimes returns the per-stage forward/backward wall times of the
// plan. Micro-sharded stages run each micro-batch cooperatively: the stage's
// wall time is the slowest replica's share, ceil(mbs/d)/mbs of the full
// time — replicating a stage beyond the point of one sample per replica
// stops helping, which is why DAPPLE's aggressive replication underperforms
// its own linear model.
func StageWallTimes(s *Spec, bl *model.Blocks) (f, b []float64) {
	f, b = s.Partition.StageTimes(bl)
	switch {
	case s.MicroShard:
		// A replica's share of the micro-batch is ceil(mbs/d) samples —
		// integral and imbalanced — and small per-replica batches run at
		// lower device efficiency, modeled as η(b) = b/(b+1). Both effects
		// are what DAPPLE's linear planner model misses.
		mbs := bl.Geom.MicroBatch
		eta := func(b float64) float64 { return b / (b + 1) }
		for j, d := range s.StageDevices {
			if d <= 1 {
				continue
			}
			eff := float64(ceilDiv(mbs, d))
			share := eff / float64(mbs) * eta(float64(mbs)) / eta(eff)
			f[j] *= share
			b[j] *= share
		}
	case s.RoundRobin && s.DataParallel() == 1:
		// Throughput-equivalent approximation of alternating replicas,
		// derated for the stream split/merge synchronization and uneven
		// gradient accumulation that per-stage replication costs in
		// practice — the planner-model optimism that makes Piper's deep,
		// partially-replicated pipelines underperform (paper §IV-D).
		const mergePenalty = 1.15
		for j, d := range s.StageDevices {
			if d <= 1 {
				continue
			}
			f[j] *= mergePenalty / float64(d)
			b[j] *= mergePenalty / float64(d)
		}
	}
	return f, b
}

// allReduce returns the gradient synchronization time of the plan: each
// stage ring-allreduces its fp32 gradients across its replicas; the stages
// synchronize concurrently on disjoint links, so the slowest dominates.
func allReduce(s *Spec, bl *model.Blocks, net config.Network) float64 {
	params := s.Partition.StageParams(bl)
	var worst float64
	for j, d := range s.StageDevices {
		if t := cost.AllReduceTime(params[j]*4, d, net); t > worst {
			worst = t
		}
	}
	return worst
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }
