// Package experiments regenerates every table and figure of the paper's
// evaluation (§IV). Each Table*/Fig* function reproduces one of them and
// returns both typed results and a rendered tableio.Table, so the harness
// (cmd/experiments) can print the same rows/series the paper reports and the
// test suite can assert the paper's shape claims (who wins, by roughly what
// factor, and where the crossovers fall).
package experiments

import (
	"context"
	"fmt"

	"autopipe/internal/baselines/dapple"
	"autopipe/internal/baselines/megatron"
	"autopipe/internal/baselines/piper"
	"autopipe/internal/config"
	"autopipe/internal/core"
	"autopipe/internal/cost"
	"autopipe/internal/exec"
	"autopipe/internal/memory"
	"autopipe/internal/model"
	"autopipe/internal/partition"
	"autopipe/internal/plan"
	"autopipe/internal/schedule"
	"autopipe/internal/slicer"
	"autopipe/internal/tableio"
)

// Env carries the hardware environment experiments run against.
type Env struct {
	Cluster config.Cluster
	// Seed feeds the executor's deterministic jitter where an experiment
	// models "actual" hardware runs (Fig. 11).
	Seed uint64
	// Ctx bounds every planning call; nil means context.Background().
	Ctx context.Context
}

// DefaultEnv returns the paper's testbed: 16 RTX 3090s over 100 Gb/s IB.
func DefaultEnv() Env {
	return Env{Cluster: config.DefaultCluster(), Seed: 2022}
}

func (e Env) ctx() context.Context {
	if e.Ctx != nil {
		return e.Ctx
	}
	return context.Background()
}

// planDepth runs the fixed-depth partition search under the env's context.
func (e Env) planDepth(bl *model.Blocks, p, m int) (*core.PlanResult, error) {
	return core.PlanDepthOpts(e.ctx(), bl, p, m, core.Options{})
}

// plan runs one planner of the roster the paper compares (Tables III/IV,
// Figs. 12 and 13) on an explicit cluster: "DAPPLE", "Piper", or AutoPipe
// under the env's context. full selects the baselines' complete search
// spaces — DAPPLE's exhaustive device-composition sweep, Piper's tensor
// parallelism and per-stage recomputation — which only Fig. 12 times; the
// other comparisons apply every plan to the same Megatron-LM backend, with
// activation checkpointing mandated and no tensor parallelism.
func (e Env) plan(alg string, mc config.Model, run config.Run, cl config.Cluster, full bool) (*plan.Spec, *model.Blocks, error) {
	switch alg {
	case "DAPPLE":
		return dapple.Plan(mc, run, cl, dapple.Options{Exhaustive: full})
	case "Piper":
		opts := piper.Options{}
		if full {
			opts = piper.FullSpace()
		}
		return piper.Plan(mc, run, cl, opts)
	default:
		return core.PlanClusterOpts(e.ctx(), mc, run, cl, core.Options{})
	}
}

// planners is the roster in table order, with the tables' one-letter labels.
var planners = []struct{ name, short string }{{"DAPPLE", "D"}, {"Piper", "P"}, {"AutoPipe", "A"}}

// buildSub lowers a model at sub-layer granularity for the env.
func (e Env) buildSub(mc config.Model, mbs int) (*model.Blocks, error) {
	return model.Build(mc, cost.Geometry{MicroBatch: mbs, Checkpoint: true},
		e.Cluster.Device, e.Cluster.Network, model.SubLayer)
}

// runPartition executes a partition on the discrete-event executor under
// plain 1F1B (numSliced == 0) or AutoPipe's sliced schedule.
func (e Env) runPartition(bl *model.Blocks, part partition.Partition, m, numSliced int, jitter float64) (*exec.Result, error) {
	f, b := part.StageTimes(bl)
	s, err := schedule.Sliced(part.Stages(), m, numSliced)
	if err != nil {
		return nil, err
	}
	cfg := plan.ExecConfig(f, b, bl, e.Cluster)
	cfg.Jitter, cfg.Seed = jitter, e.Seed
	return exec.Run(s, cfg)
}

// Series labels the five methods compared in Figs. 9, 10, and 14.
const (
	SeriesMegatron    = "Megatron-LM"
	SeriesInterleaved = "Interleaved"
	SeriesSlicer      = "Slicer"
	SeriesPlanner     = "Planner"
	SeriesAutoPipe    = "AutoPipe"
)

// interleaveChunks is Megatron's interleaving factor in the paper's
// startup-overhead comparison (v = 2 halves the startup).
const interleaveChunks = 2

// MethodResult is one method's measurement in a comparison point.
type MethodResult struct {
	// IterTime and Startup are in seconds; OOM marks a configuration that
	// exceeds device memory (the value fields are then zero).
	IterTime float64
	Startup  float64
	OOM      bool
	// Infeasible marks configurations a method cannot run at all (e.g. the
	// interleaved schedule with an odd per-stage layer count, Fig. 14b).
	Infeasible bool
	NumSliced  int
}

// Point is one measured configuration of the method comparisons: a model at
// one pipeline depth and micro-batch size, with each method's result keyed
// by its series label.
type Point struct {
	Model   string
	Depth   int
	Mbs     int
	Results map[string]MethodResult
}

// ComparePoint measures the paper's methods at one (model, depth,
// micro-batch, #micro-batches) configuration: Megatron-LM's even partition
// under plain 1F1B and under its interleaved schedule, the Slicer alone (even
// partition + sliced warmup), the Planner alone (balanced partition + plain
// 1F1B), and full AutoPipe (balanced partition + sliced warmup). Figs. 9, 10,
// and 14 and the interleaved ablation are table views of its points.
func (e Env) ComparePoint(mc config.Model, depth, mbs, m int) (Point, error) {
	bl, err := e.buildSub(mc, mbs)
	if err != nil {
		return Point{}, err
	}
	out := Point{Model: mc.Name, Depth: depth, Mbs: mbs, Results: make(map[string]MethodResult, 5)}

	even, err := megatron.EvenPartition(bl, depth)
	if err != nil {
		return Point{}, fmt.Errorf("experiments: %s depth %d: %w", mc.Name, depth, err)
	}
	evenOOM := !fits(bl, even, m, e.Cluster.Device)

	plannerRes, err := e.planDepth(bl, depth, m)
	if err != nil {
		return Point{}, err
	}
	balanced := plannerRes.Best.Partition
	balancedOOM := !fits(bl, balanced, m, e.Cluster.Device)

	measure := func(part partition.Partition, oom bool, slice bool) (MethodResult, error) {
		if oom {
			return MethodResult{OOM: true}, nil
		}
		numSliced := 0
		if slice && depth > 1 {
			sp, err := slicer.SolveProfile(part.Profile(bl, m))
			if err != nil {
				return MethodResult{}, err
			}
			numSliced = sp.NumSliced
		}
		r, err := e.runPartition(bl, part, m, numSliced, 0)
		if err != nil {
			return MethodResult{}, err
		}
		return MethodResult{IterTime: r.IterTime, Startup: r.Startup, NumSliced: numSliced}, nil
	}

	if out.Results[SeriesMegatron], err = measure(even, evenOOM, false); err != nil {
		return Point{}, err
	}
	out.Results[SeriesInterleaved] = e.interleaved(bl, even, depth, m)
	if out.Results[SeriesSlicer], err = measure(even, evenOOM, true); err != nil {
		return Point{}, err
	}
	if out.Results[SeriesPlanner], err = measure(balanced, balancedOOM, false); err != nil {
		return Point{}, err
	}
	if out.Results[SeriesAutoPipe], err = measure(balanced, balancedOOM, true); err != nil {
		return Point{}, err
	}
	return out, nil
}

// interleaved measures Megatron-LM's interleaved schedule: interleaveChunks
// model chunks per device over the even partition. It needs an even number
// of layers per stage (Infeasible otherwise) and stashes more activations
// than plain 1F1B (OOM when they exceed device memory).
func (e Env) interleaved(bl *model.Blocks, even partition.Partition, depth, m int) MethodResult {
	vf, vb, _, err := megatron.InterleavedTimes(bl, depth, interleaveChunks)
	if err != nil {
		return MethodResult{Infeasible: true}
	}
	if ok, _ := memory.Fits(bl, even, m, memory.Interleaved, interleaveChunks, e.Cluster.Device); !ok {
		return MethodResult{OOM: true}
	}
	s, err := schedule.Interleaved(depth, m, interleaveChunks)
	if err != nil {
		return MethodResult{Infeasible: true}
	}
	r, err := exec.Run(s, plan.ExecConfig(vf, vb, bl, e.Cluster))
	if err != nil {
		return MethodResult{Infeasible: true}
	}
	return MethodResult{IterTime: r.IterTime, Startup: r.Startup}
}

func fits(bl *model.Blocks, part partition.Partition, m int, dev config.Device) bool {
	ok, _ := memory.Fits(bl, part, m, memory.OneFOneB, 1, dev)
	return ok
}

// setting is one configuration a comparison table measures.
type setting struct {
	mc                config.Model
	depth, mbs, micro int
}

// compareTable measures each setting with ComparePoint and adds one row per
// point to t.
func (e Env) compareTable(t *tableio.Table, settings []setting, row func(Point) []string) ([]Point, *tableio.Table, error) {
	points := make([]Point, 0, len(settings))
	for _, s := range settings {
		p, err := e.ComparePoint(s.mc, s.depth, s.mbs, s.micro)
		if err != nil {
			return nil, nil, err
		}
		points = append(points, p)
		t.AddRow(row(p)...)
	}
	return points, t, nil
}

// cells renders the named series of p: iteration time, or the startup
// overhead when startup is set. X marks a method that cannot run the
// configuration and OOM one that exceeds device memory.
func cells(p Point, startup bool, series ...string) []string {
	out := make([]string, len(series))
	for i, s := range series {
		r := p.Results[s]
		v := r.IterTime
		if startup {
			v = r.Startup
		}
		switch {
		case r.Infeasible:
			out[i] = "X"
		case r.OOM:
			out[i] = "OOM"
		default:
			out[i] = tableio.Ms(v)
		}
	}
	return out
}

// speedupCell renders base's iteration time over that of method, or "-"
// when either cannot run.
func speedupCell(p Point, base, method string) string {
	b, m := p.Results[base], p.Results[method]
	if b.OOM || m.OOM || b.Infeasible || m.Infeasible || m.IterTime == 0 {
		return "-"
	}
	return tableio.Speedup(b.IterTime / m.IterTime)
}
