package train

import (
	"context"
	"errors"
	"fmt"
	"math"

	"autopipe/internal/config"
	"autopipe/internal/core"
	"autopipe/internal/cost"
	"autopipe/internal/errdefs"
	"autopipe/internal/exec"
	"autopipe/internal/fault"
	"autopipe/internal/model"
	"autopipe/internal/nn"
	"autopipe/internal/obs"
	"autopipe/internal/partition"
	"autopipe/internal/plan"
	"autopipe/internal/schedule"
	"autopipe/internal/sim"
	"autopipe/internal/slicer"
)

// This file is the self-healing training driver: it couples the real
// pipelined trainer (Pipeline.Step on actual tensors) with the discrete-event
// timing executor under fault injection, and closes the loop
// detect → checkpoint → replan → resume:
//
//   - transient message drops retry the iteration with capped exponential
//     backoff (the injector consumes count-mode drops, so retries converge);
//   - sustained stragglers and degraded links show up as measured iteration
//     times deviating from the plan's prediction; after a patience window the
//     driver re-profiles per-device speed from the measured busy times and
//     re-plans live — no checkpoint needed, the parameters never moved;
//   - an injected OOM re-plans the same depth and retries into the injector's
//     now-consumed fault;
//   - a permanent device crash (or dead link, which strands every stage
//     behind it) checkpoints model + optimizer state, re-partitions the model
//     over the survivors at reduced depth, restores into freshly built
//     modules, and resumes training.
//
// Everything the driver decides is a pure function of the config and the
// fault plan: recovery latency is modeled arithmetically (checkpoint bytes
// over checkpoint bandwidth, planner candidates times a per-candidate cost),
// never measured from wall clock, so a recovery trajectory — event log,
// replan decisions, iteration times — replays byte-for-byte for a given seed.

// DriverConfig parameterizes a self-healing training run.
type DriverConfig struct {
	// Model is the cost-model view of the architecture (for planning) and NN
	// the real trainable view; they must describe the same network so the
	// planner's block array aligns 1:1 with the module array.
	Model config.Model
	NN    nn.GPTConfig
	// Cluster supplies device and network constants for planning and timing.
	Cluster config.Cluster
	// Depth is the initial pipeline depth (devices 0..Depth-1).
	Depth int
	// Micro and Batch are the micro-batch count per iteration and the
	// per-micro-batch sample count.
	Micro, Batch int
	// Steps is the number of training iterations to run.
	Steps int
	// DataSeed seeds the synthetic corpus.
	DataSeed uint64
	// Faults, when non-nil, is the fault plan injected into every timing
	// execution. Times in the plan are absolute on the driver's simulated
	// clock, which advances by each iteration's makespan plus any modeled
	// recovery latency.
	Faults *fault.Plan
	// Obs receives driver and fault-injection metrics (may be nil).
	Obs *obs.Registry

	// Sanitize threads the executor's runtime happens-before checker through
	// every timing execution (measured and reference); a violation aborts
	// training with an error wrapping errdefs.ErrInternal. The package's
	// tests always set it.
	Sanitize bool
}

// The driver's recovery constants.
const (
	// learningRate is the Adam learning rate.
	learningRate = 2e-3
	// maxRetries caps transient-fault retries per iteration.
	maxRetries = 3
	// backoffBase is the first retry backoff in simulated seconds; each
	// retry doubles it, capped at 1 s.
	backoffBase = 0.05
	// stragglerFactor is the measured/predicted iteration-time ratio beyond
	// which (in either direction) an iteration counts as deviant.
	stragglerFactor = 1.35
	// stragglerPatience is the number of consecutive deviant iterations
	// that trigger re-profiling and a live re-plan.
	stragglerPatience = 2
	// checkpointBandwidth is the modeled save/restore bandwidth in bytes/s
	// (a 100 Gb/s fabric).
	checkpointBandwidth = 12.5e9
	// replanCandidateCost is the modeled planning time per candidate the
	// search evaluates, in seconds. Modeling replan latency from the
	// candidate count instead of wall clock keeps recovery trajectories
	// deterministic.
	replanCandidateCost = 2e-4
)

func (cfg DriverConfig) validate() error {
	if cfg.Depth < 1 {
		return fmt.Errorf("%w: train: driver depth %d", errdefs.ErrBadConfig, cfg.Depth)
	}
	if cfg.Micro < 1 || cfg.Batch < 1 || cfg.Steps < 1 {
		return fmt.Errorf("%w: train: driver needs positive micro/batch/steps, got %d/%d/%d",
			errdefs.ErrBadConfig, cfg.Micro, cfg.Batch, cfg.Steps)
	}
	if cfg.Faults != nil {
		if err := cfg.Faults.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Recovery records one self-healing action.
type Recovery struct {
	// Iter is the 1-based training iteration during which the fault struck.
	Iter int
	// Kind is the fault class ("device-crash", "link-down", "oom",
	// "straggler") and Detail the human-readable specifics.
	Kind   string
	Detail string
	// Downtime is the modeled recovery latency in simulated seconds
	// (checkpoint + replan + restore for a crash; replan only for a live
	// re-plan).
	Downtime float64
	// DepthBefore and DepthAfter are the pipeline depths around the action.
	DepthBefore, DepthAfter int
}

// Report is the outcome of a driver run. Log, Iters, Recoveries, and the
// final plan are pure functions of (config, fault plan): the golden
// determinism test asserts they replay byte-for-byte. Losses are equally
// deterministic in-process but involve transcendental math, so the golden
// file excludes them.
type Report struct {
	// Iters is the measured timing-executor makespan of each completed
	// iteration, in simulated seconds.
	Iters []float64
	// Losses is the real training loss per iteration.
	Losses []float64
	// Clock is the final simulated time: compute plus every modeled backoff
	// and recovery latency.
	Clock float64
	// Recoveries lists every self-healing action taken.
	Recoveries []Recovery
	// Retries and Replans count transient retries and planner re-runs.
	Retries, Replans int
	// Log is the deterministic event log of the run.
	Log []string
	// FinalDepth, Devices, and Bounds describe the plan training ended on.
	FinalDepth int
	Devices    []int
	Bounds     []int
}

// driver is the mutable state of one self-healing run.
type driver struct {
	cfg    DriverConfig
	reg    *obs.Registry
	inj    *fault.Injector
	blocks *model.Blocks

	mods []nn.Module
	pipe *Pipeline
	opt  *Adam
	ds   *Dataset

	devices   []int // stage -> physical device id
	part      partition.Partition
	numSliced int
	scales    map[int]float64 // physical device -> believed compute scale

	clock float64
	// lastReplanTime is the modeled planning latency of the most recent
	// replan: candidates evaluated × the per-candidate cost.
	lastReplanTime float64
	patience       int
	report         *Report
}

// RunDriver executes a self-healing training run and returns its report. The
// returned error is non-nil only when training could not complete: an invalid
// config, an unrecoverable fault (every device dead), or retries exhausted.
func RunDriver(ctx context.Context, cfg DriverConfig) (*Report, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	bl, err := model.Build(cfg.Model, cost.Geometry{MicroBatch: cfg.Batch, Checkpoint: false},
		cfg.Cluster.Device, cfg.Cluster.Network, model.SubLayer)
	if err != nil {
		return nil, err
	}
	mods := nn.BuildGPT(cfg.NN)
	if len(mods) != bl.Len() {
		return nil, fmt.Errorf("%w: train: module array (%d) does not align with block array (%d)",
			errdefs.ErrBadConfig, len(mods), bl.Len())
	}
	if cfg.Depth > bl.Len() {
		return nil, fmt.Errorf("%w: train: depth %d exceeds %d blocks", errdefs.ErrBadConfig, cfg.Depth, bl.Len())
	}

	d := &driver{
		cfg: cfg, reg: cfg.Obs, inj: fault.New(cfg.Faults, cfg.Obs), blocks: bl,
		mods: mods, opt: NewAdam(learningRate),
		ds:     NewDataset(cfg.NN.Vocab, cfg.NN.MaxSeq, cfg.DataSeed),
		scales: map[int]float64{},
		report: &Report{},
	}
	for i := 0; i < cfg.Depth; i++ {
		d.devices = append(d.devices, i)
	}
	if err := d.replan(ctx, "initial plan"); err != nil {
		return nil, err
	}
	d.report.Replans = 0 // the initial plan is not a recovery replan
	if err := d.rebuildPipeline(); err != nil {
		return nil, err
	}
	d.logf("plan: depth %d bounds %v sliced %d", len(d.devices), d.part.Bounds, d.numSliced)

	scale := 1.0 / float64(cfg.Micro*cfg.Batch*cfg.NN.MaxSeq)
	for iter := 1; iter <= cfg.Steps; iter++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("train: driver: %w", err)
		}
		micros := d.ds.Micros(cfg.Micro, cfg.Batch)

		res, recovered, err := d.executeWithRecovery(ctx, iter)
		if err != nil {
			return nil, err
		}

		// The timing iteration completed, so the training step commits.
		nn.ZeroGrads(d.pipe.AllParams())
		loss, err := d.pipe.Step(micros, d.numSliced, scale)
		if err != nil {
			return nil, fmt.Errorf("train: driver iter %d: %w", iter, err)
		}
		d.opt.Step(d.pipe.AllParams())

		d.clock += res.IterTime
		d.report.Iters = append(d.report.Iters, res.IterTime)
		d.report.Losses = append(d.report.Losses, loss)
		if d.reg != nil {
			d.reg.Counter("driver.iters").Inc()
			d.reg.Gauge("driver.iter_time_s").Set(res.IterTime)
			d.reg.Gauge("driver.clock_s").Set(d.clock)
		}
		if recovered && d.reg != nil {
			// Post-recovery throughput: the first completed iteration on the
			// recovered plan.
			d.reg.Gauge("driver.post_recovery_throughput").Set(float64(cfg.Micro*cfg.Batch) / res.IterTime)
		}

		d.checkStraggler(ctx, iter, res)
	}

	d.report.Clock = d.clock
	d.report.FinalDepth = len(d.devices)
	d.report.Devices = append([]int(nil), d.devices...)
	d.report.Bounds = append([]int(nil), d.part.Bounds...)
	return d.report, nil
}

// executeWithRecovery runs the timing executor for one iteration, healing
// every fault it surfaces until the iteration completes or is unrecoverable.
// recovered reports whether a checkpointed recovery happened.
func (d *driver) executeWithRecovery(ctx context.Context, iter int) (res *exec.Result, recovered bool, err error) {
	retries := 0
	for {
		res, err = d.runExec()
		if err == nil {
			return res, recovered, nil
		}
		switch {
		case errors.Is(err, errdefs.ErrTransient):
			if retries >= maxRetries {
				return nil, recovered, fmt.Errorf("train: driver iter %d: %d retries exhausted: %w", iter, retries, err)
			}
			backoff := backoffBase * float64(uint64(1)<<uint(retries))
			if backoff > 1 {
				backoff = 1
			}
			retries++
			d.clock += backoff
			d.report.Retries++
			if d.reg != nil {
				d.reg.Counter("driver.retries").Inc()
			}
			d.logf("iter %d: transient comm fault, retry %d after %.6gs backoff", iter, retries, backoff)

		case errors.Is(err, errdefs.ErrOOM):
			if rerr := d.recoverOOM(ctx, iter, err); rerr != nil {
				return nil, recovered, rerr
			}

		case errors.Is(err, errdefs.ErrDeviceLost) || errors.Is(err, errdefs.ErrLinkDown):
			if rerr := d.recoverLoss(ctx, iter, err); rerr != nil {
				return nil, recovered, rerr
			}
			recovered = true

		default:
			return nil, recovered, fmt.Errorf("train: driver iter %d: %w", iter, err)
		}
	}
}

// buildSchedule lays out the current plan's schedule.
func (d *driver) buildSchedule() (*schedule.Schedule, error) {
	return schedule.Sliced(len(d.devices), d.cfg.Micro, d.numSliced)
}

// runExec executes the current plan's schedule on the timing executor with
// fault injection, starting at the driver's simulated clock.
func (d *driver) runExec() (*exec.Result, error) {
	s, err := d.buildSchedule()
	if err != nil {
		return nil, err
	}
	f, b := d.part.StageTimes(d.blocks)
	cfg := plan.ExecConfig(f, b, d.blocks, d.cfg.Cluster)
	cfg.Obs, cfg.Faults, cfg.Sanitize = d.reg, d.inj, d.cfg.Sanitize
	cfg.Start, cfg.DeviceMap = d.clock, d.devices
	return exec.Run(s, cfg)
}

// referenceTime is the driver's expectation for one iteration of the current
// plan: the same schedule on the same executor with stage times scaled by the
// believed per-device speeds, but no fault injection. Measured-vs-reference
// deviation is then pure fault signal — launch overheads, link serialization,
// and jitter cancel exactly (the jitter stream is seed-deterministic).
func (d *driver) referenceTime() float64 {
	s, err := d.buildSchedule()
	if err != nil {
		return 0
	}
	prof := d.scaledProfile(d.part)
	cfg := plan.ExecConfig(prof.Fwd, prof.Bwd, d.blocks, d.cfg.Cluster)
	cfg.Sanitize = d.cfg.Sanitize
	r, err := exec.Run(s, cfg)
	if err != nil {
		return 0
	}
	return r.IterTime
}

// recoverLoss heals a permanent device or link loss: checkpoint, drop the
// dead device, replan over the survivors at reduced depth, restore into a
// fresh model, resume.
func (d *driver) recoverLoss(ctx context.Context, iter int, cause error) error {
	var (
		dead int
		kind string
	)
	var lost *fault.DeviceLostError
	var link *fault.LinkDownError
	switch {
	case errors.As(cause, &lost):
		dead, kind = lost.Device, "device-crash"
	case errors.As(cause, &link):
		// A dead link strands every stage downstream of it; failing over the
		// later-stage endpoint reconnects the pipeline through the survivors.
		dead, kind = link.From, "link-down"
		if d.stageOf(link.To) > d.stageOf(link.From) {
			dead = link.To
		}
	default:
		return fmt.Errorf("train: driver iter %d: %w", iter, cause)
	}

	survivors := make([]int, 0, len(d.devices))
	for _, dev := range d.devices {
		if dev != dead {
			survivors = append(survivors, dev)
		}
	}
	if len(survivors) == len(d.devices) {
		return fmt.Errorf("train: driver iter %d: lost device %d not in pipeline: %w", iter, dead, cause)
	}
	if len(survivors) == 0 {
		return fmt.Errorf("train: driver iter %d: no surviving devices: %w", iter, cause)
	}
	depthBefore := len(d.devices)

	// Checkpoint the live state (last completed step), then rebuild the model
	// from scratch and restore — the survivors host a brand-new process tree
	// in a real deployment, so the driver proves the round trip.
	params := nn.CollectParams(d.mods)
	ck := Snapshot(iter-1, params, d.opt)
	saveTime := float64(ck.SizeBytes()) / checkpointBandwidth

	d.devices = survivors
	if err := d.replan(ctx, fmt.Sprintf("iter %d %s", iter, kind)); err != nil {
		return err
	}
	replanTime := d.lastReplanTime

	d.mods = nn.BuildGPT(d.cfg.NN)
	d.opt = NewAdam(learningRate)
	if err := ck.Restore(nn.CollectParams(d.mods), d.opt); err != nil {
		return err
	}
	if err := d.rebuildPipeline(); err != nil {
		return err
	}
	restoreTime := saveTime
	downtime := saveTime + replanTime + restoreTime
	d.clock += downtime

	rec := Recovery{Iter: iter, Kind: kind, Detail: cause.Error(), Downtime: downtime,
		DepthBefore: depthBefore, DepthAfter: len(d.devices)}
	d.report.Recoveries = append(d.report.Recoveries, rec)
	d.logf("iter %d: %s (device %d): checkpoint %dB, replan depth %d->%d bounds %v sliced %d, downtime %.6gs",
		iter, kind, dead, ck.SizeBytes(), depthBefore, len(d.devices), d.part.Bounds, d.numSliced, downtime)
	d.recordRecovery(rec)
	return nil
}

// recoverOOM heals an injected OOM: re-plan the same depth (the injector
// consumes the fault, so the re-executed iteration lands in a clean
// allocator) and charge the modeled replan latency.
func (d *driver) recoverOOM(ctx context.Context, iter int, cause error) error {
	depth := len(d.devices)
	if err := d.replan(ctx, fmt.Sprintf("iter %d oom", iter)); err != nil {
		return err
	}
	d.clock += d.lastReplanTime
	if err := d.rebuildPipeline(); err != nil {
		return err
	}
	rec := Recovery{Iter: iter, Kind: "oom", Detail: cause.Error(), Downtime: d.lastReplanTime,
		DepthBefore: depth, DepthAfter: depth}
	d.report.Recoveries = append(d.report.Recoveries, rec)
	d.logf("iter %d: injected OOM: replan depth %d bounds %v sliced %d, downtime %.6gs",
		iter, depth, d.part.Bounds, d.numSliced, d.lastReplanTime)
	d.recordRecovery(rec)
	return nil
}

// checkStraggler compares the measured iteration time against the plan's
// prediction under the driver's believed per-device scales; after a patience
// window of sustained deviation (in either direction — a straggler appearing
// or healing) it re-profiles the scales from the measured busy times and
// re-plans live.
func (d *driver) checkStraggler(ctx context.Context, iter int, res *exec.Result) {
	predicted := d.referenceTime()
	if predicted <= 0 || math.IsInf(predicted, 1) {
		return
	}
	ratio := res.IterTime / predicted
	if ratio > stragglerFactor || ratio < 1/stragglerFactor {
		d.patience++
	} else {
		d.patience = 0
	}
	if d.patience < stragglerPatience {
		return
	}
	d.patience = 0
	depth := len(d.devices)

	// Re-profile: per-stage measured busy over the plan's unscaled busy.
	f, b := d.part.StageTimes(d.blocks)
	for s, dev := range d.devices {
		expected := float64(d.cfg.Micro) * (f[s] + b[s])
		if expected > 0 && res.Busy[s] > 0 {
			d.scales[dev] = res.Busy[s] / expected
		}
	}
	if err := d.replan(ctx, fmt.Sprintf("iter %d straggler", iter)); err != nil {
		d.logf("iter %d: straggler replan failed: %v", iter, err)
		return
	}
	d.clock += d.lastReplanTime
	if err := d.rebuildPipeline(); err != nil {
		d.logf("iter %d: straggler rebuild failed: %v", iter, err)
		return
	}
	rec := Recovery{Iter: iter, Kind: "straggler", Downtime: d.lastReplanTime,
		Detail:      fmt.Sprintf("measured/predicted ratio %.6g", ratio),
		DepthBefore: depth, DepthAfter: depth}
	d.report.Recoveries = append(d.report.Recoveries, rec)
	d.logf("iter %d: sustained deviation (ratio %.6g): re-profiled scales, live replan bounds %v sliced %d",
		iter, ratio, d.part.Bounds, d.numSliced)
	d.recordRecovery(rec)
}

// replanInner runs the partition search for the current depth and re-solves
// the slicing, returning the candidate count for the modeled latency.
func (d *driver) replanInner(ctx context.Context) (int, error) {
	pr, err := core.PlanDepthOpts(ctx, d.blocks, len(d.devices), d.cfg.Micro, core.Options{})
	if err != nil {
		return 0, err
	}
	part := pr.Best.Partition
	// Refine the balanced partition under the believed per-device scales: the
	// planner balances raw block weights, but a straggler's stage should
	// shrink in proportion to its slowdown.
	part = d.refineForScales(part)
	d.part = part

	prof := d.scaledProfile(part)
	sp, err := slicer.SolveProfile(prof)
	if err != nil {
		return 0, err
	}
	d.numSliced = sp.NumSliced
	if d.cfg.Batch%2 != 0 {
		// Slicing halves a micro-batch along the sample axis; an odd batch
		// cannot be split, so fall back to plain 1F1B.
		d.numSliced = 0
	}
	return pr.Evaluated, nil
}

func (d *driver) replan(ctx context.Context, why string) error {
	evaluated, err := d.replanInner(ctx)
	if err != nil {
		return fmt.Errorf("train: driver replan (%s): %w", why, err)
	}
	d.lastReplanTime = float64(evaluated) * replanCandidateCost
	d.report.Replans++
	if d.reg != nil {
		d.reg.Counter("driver.replans").Inc()
	}
	return nil
}

// refineForScales improves a partition under the believed per-device scales
// with a deterministic greedy boundary search: repeatedly try shifting each
// internal stage boundary by one block and keep the best strict improvement
// of the scaled simulated iteration time.
func (d *driver) refineForScales(part partition.Partition) partition.Partition {
	scaled := false
	for _, dev := range d.devices {
		if s, ok := d.scales[dev]; ok && s != 1 {
			scaled = true
		}
	}
	if !scaled || part.Stages() < 2 {
		return part
	}
	cur, curT := part, d.predict(part)
	for round := 0; round < 8*part.Stages(); round++ {
		best, bestT := partition.Partition{}, curT
		for i := 1; i < len(cur.Bounds)-1; i++ {
			for _, delta := range [2]int{-1, 1} {
				cand := cur.Clone()
				cand.Bounds[i] += delta
				if cand.Bounds[i] <= cand.Bounds[i-1] || cand.Bounds[i] >= cand.Bounds[i+1] {
					continue
				}
				if t := d.predict(cand); t < bestT-1e-15 {
					best, bestT = cand, t
				}
			}
		}
		if best.Bounds == nil {
			break
		}
		cur, curT = best, bestT
	}
	return cur
}

// scaledProfile is the partition's stage profile with each stage's times
// multiplied by its device's believed scale.
func (d *driver) scaledProfile(part partition.Partition) sim.StageProfile {
	f, b := part.StageTimes(d.blocks)
	for s := range f {
		if s < len(d.devices) {
			if sc, ok := d.scales[d.devices[s]]; ok {
				f[s] *= sc
				b[s] *= sc
			}
		}
	}
	return sim.StageProfile{Fwd: f, Bwd: b, Comm: d.blocks.Comm, Micro: d.cfg.Micro}
}

// predict is the analytic iteration time of a partition under the believed
// scales (+Inf on simulator error, which only a degenerate candidate hits).
func (d *driver) predict(part partition.Partition) float64 {
	r, err := sim.SimulateProfile(d.scaledProfile(part))
	if err != nil {
		return math.Inf(1)
	}
	return r.IterTime
}

func (d *driver) rebuildPipeline() error {
	pipe, err := NewPipeline(d.mods, d.part.Bounds)
	if err != nil {
		return fmt.Errorf("train: driver: %w", err)
	}
	pipe.Obs = d.reg
	d.pipe = pipe
	return nil
}

// stageOf returns the pipeline stage hosted on physical device dev, or -1.
func (d *driver) stageOf(dev int) int {
	for s, pd := range d.devices {
		if pd == dev {
			return s
		}
	}
	return -1
}

func (d *driver) logf(format string, args ...any) {
	d.report.Log = append(d.report.Log, fmt.Sprintf(format, args...))
}

func (d *driver) recordRecovery(rec Recovery) {
	if d.reg == nil {
		return
	}
	d.reg.Counter("driver.recoveries").Inc()
	d.reg.Gauge("driver.recovery_latency_s").Set(rec.Downtime)
}
