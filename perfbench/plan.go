package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"time"

	"autopipe"
	"autopipe/internal/memory"
	"autopipe/internal/partition"
)

// planOut is the outcome of one Planner.Plan + Evaluate call.
type planOut struct {
	spec    *autopipe.Spec
	bl      *autopipe.Blocks
	eval    *autopipe.EvalResult
	err     error // from Plan; a typed ErrInfeasible is a valid answer
	evalErr error
}

// infeasible reports a valid "no plan fits" answer.
func (o planOut) infeasible() bool { return errors.Is(o.err, autopipe.ErrInfeasible) }

// planEval runs the plan-cold operation at default planner options.
func planEval(ctx context.Context, pr planReq) (o planOut) {
	o.spec, o.bl, o.err = autopipe.NewPlanner().Plan(ctx, pr.Model, pr.Run, pr.Cluster)
	if o.err == nil {
		o.eval, o.evalErr = autopipe.Evaluate(o.spec, o.bl, pr.Run, pr.Cluster)
	}
	return o
}

// canonical is the plan's identity for output comparison: its JSON encoding
// without SearchTime, the one field that is a measurement.
func canonical(s *autopipe.Spec) string {
	c := *s
	c.SearchTime = 0
	data, err := json.Marshal(&c)
	if err != nil {
		return "unencodable: " + err.Error()
	}
	return string(data)
}

// answer is the canonical form of a plan outcome for digests and
// comparisons.
func (o planOut) answer() string {
	switch {
	case o.err == nil:
		return canonical(o.spec)
	case o.infeasible():
		return "infeasible"
	default:
		return "error: " + o.err.Error()
	}
}

// checkPlan runs the plan-cold output checks on one outcome and returns the
// first problem, or "".
func checkPlan(pr planReq, o planOut) string {
	if o.err != nil {
		if o.infeasible() {
			return ""
		}
		return fmt.Sprintf("%s: plan failed: %v", pr, o.err)
	}
	s, bl := o.spec, o.bl
	b := s.Partition.Bounds
	if len(b) < 2 || b[0] != 0 || b[len(b)-1] != bl.Len() {
		return fmt.Sprintf("%s: partition %v does not cover %d blocks", pr, b, bl.Len())
	}
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			return fmt.Sprintf("%s: partition %v is not in order", pr, b)
		}
	}
	if s.Depth()*s.DataParallel() != pr.Cluster.NumGPUs {
		return fmt.Sprintf("%s: depth %d × data-parallel %d != %d GPUs", pr, s.Depth(), s.DataParallel(), pr.Cluster.NumGPUs)
	}
	prof := autopipe.Profile(s.Partition, bl, pr.Run.MicroBatches(s.DataParallel()))
	sim, err := autopipe.SimulateProfile(prof)
	if err != nil {
		return fmt.Sprintf("%s: simulate winning profile: %v", pr, err)
	}
	if s.Predicted < sim.IterTime {
		return fmt.Sprintf("%s: Predicted %g below the simulated iteration %g", pr, s.Predicted, sim.IterTime)
	}
	if o.evalErr != nil {
		return fmt.Sprintf("%s: evaluate: %v", pr, o.evalErr)
	}
	if err := o.eval.Failure(); err != nil {
		return fmt.Sprintf("%s: evaluate: %v", pr, err)
	}
	return ""
}

// planLayers is what the traced run learns about one plan: the planner's
// observer counters, allocation counts, and replays of each layer on the
// plan's own inputs.
type planLayers struct {
	plan, eval                   time.Duration
	hits, misses, pruned, cands  float64
	depths                       int
	seed, adjust, move           float64 // seconds
	planAllocs, planBytes, bytes uint64  // bytes covers Plan + Evaluate
	build, balance, sim          time.Duration
	fits, slice                  time.Duration
	ok                           bool // the plan succeeded and replays ran
}

// tracedPlanEval is planEval with spans around each layer call, an observer
// registry, and exact allocation counts. The layer replays run after the
// operation's root span ends, so they are not part of its latency.
func tracedPlanEval(ctx context.Context, rec *recorder, pr planReq) (o planOut, root span, l planLayers) {
	req := rec.newID()
	reg := autopipe.NewRegistry()
	var m0, m1, m2 runtime.MemStats
	runtime.ReadMemStats(&m0)
	root = span{ID: rec.newID(), Req: req, Name: "plan.op", Start: rec.now()}
	ps := rec.timed("core.plan", req, root.ID, func() {
		o.spec, o.bl, o.err = autopipe.NewPlanner(autopipe.WithObserver(reg)).Plan(ctx, pr.Model, pr.Run, pr.Cluster)
	})
	runtime.ReadMemStats(&m1)
	l.plan = ps.dur()
	if o.err == nil {
		es := rec.timed("plan.evaluate", req, root.ID, func() {
			o.eval, o.evalErr = autopipe.Evaluate(o.spec, o.bl, pr.Run, pr.Cluster)
		})
		l.eval = es.dur()
	}
	root.End = rec.now()
	rec.add(root)
	runtime.ReadMemStats(&m2)
	l.planAllocs, l.planBytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	l.bytes = m2.TotalAlloc - m0.TotalAlloc
	if o.err != nil {
		return o, root, l
	}

	snap := reg.Snapshot()
	l.hits = snap.Counters["planner.engine.cache_hits"]
	l.misses = snap.Counters["planner.engine.cache_misses"]
	l.pruned = snap.Counters["planner.engine.depths_pruned"]
	for name, v := range snap.Counters {
		if strings.HasPrefix(name, "planner.p") && strings.HasSuffix(name, ".candidates") {
			l.cands += v
			l.depths++
		}
	}
	// Depths search in shared waves: every depth records the same seed
	// wave, and the depth that searches longest has been charged every
	// adjust and move wave.
	for name, v := range snap.Gauges {
		if !strings.HasPrefix(name, "planner.p") {
			continue
		}
		switch {
		case strings.HasSuffix(name, ".seed_s"):
			l.seed = max(l.seed, v)
		case strings.HasSuffix(name, ".adjust_s"):
			l.adjust = max(l.adjust, v)
		case strings.HasSuffix(name, ".move_s"):
			l.move = max(l.move, v)
		}
	}

	s, bl := o.spec, o.bl
	depth, m := s.Depth(), pr.Run.MicroBatches(s.DataParallel())
	weights := bl.Weights()
	prof := autopipe.Profile(s.Partition, bl, m)
	var err error
	l.build = rec.timed("model.build", req, 0, func() { _, err = autopipe.Build(pr.Model, pr.Run.MicroBatch, pr.Cluster) }).dur()
	if err == nil {
		l.balance = rec.timed("partition.balance", req, 0, func() { _, err = partition.Balance(weights, depth) }).dur()
	}
	if err == nil {
		l.sim = rec.timed("sim.simulate", req, 0, func() { _, err = autopipe.SimulateProfile(prof) }).dur()
	}
	if err == nil {
		l.fits = rec.timed("memory.fits", req, 0, func() {
			memory.Fits(bl, s.Partition, m, memory.OneFOneB, 1, pr.Cluster.Device)
		}).dur()
		l.slice = rec.timed("slicer.solve", req, 0, func() { _, err = autopipe.SliceProfile(prof) }).dur()
	}
	l.ok = err == nil
	return o, root, l
}

// setPlanLayers reports the planner-side per-layer metrics over the traced
// plans of a run.
func setPlanLayers(r *runCtx, ls []planLayers) {
	var ok []planLayers
	for _, l := range ls {
		if l.ok {
			ok = append(ok, l)
		}
	}
	n := float64(len(ok))
	note := fmt.Sprintf("(%d traced plans)", len(ok))
	if n == 0 {
		n = 1
	}
	col := func(f func(planLayers) float64) []float64 {
		out := make([]float64, len(ok))
		for i, l := range ok {
			out[i] = f(l)
		}
		return out
	}
	sum := func(f func(planLayers) float64) float64 {
		var t float64
		for _, l := range ok {
			t += f(l)
		}
		return t
	}

	planUs := sum(func(l planLayers) float64 { return us(l.plan) })
	// Estimated time of each layer inside Planner.Plan, from each plan's own
	// replays: one model build, one Algorithm 1 seed per depth, one
	// simulation per engine cache miss, one memory check per depth that was
	// not pruned, and one slicer run.
	simUs := sum(func(l planLayers) float64 { return l.misses * us(l.sim) })
	est := map[string]float64{
		"sim":       simUs,
		"partition": sum(func(l planLayers) float64 { return float64(l.depths) * us(l.balance) }),
		"model":     sum(func(l planLayers) float64 { return us(l.build) }),
		"memory":    sum(func(l planLayers) float64 { return (float64(l.depths) - l.pruned) * us(l.fits) }),
		"slicer":    sum(func(l planLayers) float64 { return us(l.slice) }),
	}
	var explained float64
	for _, name := range []string{"sim", "partition", "model", "memory", "slicer"} {
		explained += est[name]
		fmt.Fprintf(r.out, "layer %-10s est. share of Planner.Plan time %6.3f\n", name, est[name]/max(planUs, 1))
	}

	r.set("sim.calls_per_plan", sum(func(l planLayers) float64 { return l.misses })/n, note)
	r.set("sim.call_us", median(col(func(l planLayers) float64 { return us(l.sim) })), "(median replayed SimulateProfile on the winning profile)")
	r.set("sim.est_share", simUs/max(planUs, 1), "(calls × replayed call time over Planner.Plan time)")
	r.set("runtime.alloc_kb_per_plan", sum(func(l planLayers) float64 { return float64(l.planBytes) })/n/1024, note)
	r.set("runtime.allocs_per_plan", sum(func(l planLayers) float64 { return float64(l.planAllocs) })/n, note)
	r.set("core.candidates_per_plan", sum(func(l planLayers) float64 { return l.cands })/n, note)
	hits, misses := sum(func(l planLayers) float64 { return l.hits }), sum(func(l planLayers) float64 { return l.misses })
	r.set("core.sim_cache_hit_ratio", hits/max(hits+misses, 1), note)
	r.set("core.depths_pruned_per_plan", sum(func(l planLayers) float64 { return l.pruned })/n, note)
	r.set("core.seed_ms", sum(func(l planLayers) float64 { return l.seed })/n*1e3, note)
	r.set("core.adjust_ms", sum(func(l planLayers) float64 { return l.adjust })/n*1e3, note)
	r.set("core.move_ms", sum(func(l planLayers) float64 { return l.move })/n*1e3, note)
	r.set("partition.balance_us", median(col(func(l planLayers) float64 { return us(l.balance) })), "(median replayed Balance at the winning depth)")
	r.set("model.build_us", median(col(func(l planLayers) float64 { return us(l.build) })), "(median replayed Build)")
	r.set("memory.fits_us", median(col(func(l planLayers) float64 { return us(l.fits) })), "(median replayed Fits on the winning partition)")
	r.set("slicer.solve_us", median(col(func(l planLayers) float64 { return us(l.slice) })), "(median replayed SliceProfile)")
	r.set("plan.evaluate_us", median(col(func(l planLayers) float64 { return us(l.eval) })), "(median Evaluate span)")
	r.set("plan.unexplained_share", 1-explained/max(planUs, 1), "(Planner.Plan time the layer estimates do not explain)")
}
