package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"autopipe/internal/config"
	"autopipe/internal/cost"
	"autopipe/internal/errdefs"
	"autopipe/internal/memory"
	"autopipe/internal/model"
	"autopipe/internal/obs"
	"autopipe/internal/partition"
	"autopipe/internal/plan"
	"autopipe/internal/sim"
	"autopipe/internal/slicer"
)

// This file implements the plan-space search engine behind the Planner API.
// One call searches the pipeline depths serially, shallowest first, each to
// completion before the next starts, with one candidate map per depth —
// every partition that depth has simulated, so none is simulated twice.
// Concurrency comes from the callers, not the engine: each call builds its
// own engine, so concurrent calls share nothing.
//
// A depth starts from its Algorithm 1 seed and refines it in waves. Within a
// wave the depth expands its items in order, one serial pass per item: the
// step-2 cooldown adjustment, then the step-3 master moves from the adjusted
// scheme. A candidate is counted the moment it is simulated, and a new one
// whose master did not recede joins the next wave. The budget gate runs only
// between waves, so the same inputs always explore the same candidates, pick
// the same plan and count the same work.

// Options configures the plan-space search engine. The zero value searches
// with no candidate budget and no telemetry registry.
type Options struct {
	// Budget caps the number of distinct candidate partitions the engine
	// simulates across the whole search (0 = unlimited). It is checked
	// between the waves of the depth in flight — the wave completes, so the
	// cap can be overshot by one wave — and every depth the search reaches
	// still evaluates its seed, so a multi-depth search spends its budget on
	// the shallow depths first. The truncated search still returns the best
	// plan found, deterministically.
	Budget int
	// Obs, when non-nil, receives search telemetry: per-depth metrics under
	// "planner.p<depth>.*" for every searched depth (Telemetry.Publish:
	// candidate and accepted-move counters, gauges for the final iteration
	// time and the depth's own seed, adjust and move times, and a
	// convergence histogram) and engine-level metrics under
	// "planner.engine.*". The depths' phase times are disjoint, so summed
	// over depths they stay within planner.engine.search_s.
	Obs *obs.Registry
}

// scored is the engine's form of a candidate: a partition and the simulator
// summary the search decides on. The full sim.Result is materialized only
// for the candidates a PlanResult returns.
type scored struct {
	part partition.Partition
	sum  sim.Summary
}

// depthState is the search of one pipeline depth.
type depthState struct {
	p, dp, m int

	// cands holds the summary of every partition of this depth the search
	// has simulated, under its Key. Partitions of different depths never
	// share a key (their bounds differ in length) and a depth plans with one
	// micro-batch count, so the key alone identifies a simulation.
	cands map[string]sim.Summary
	tel   Telemetry
	best  scored
	seed  scored
	// score is the plan score of a memory-feasible depth: best's simulated
	// iteration time plus the slowest stage's gradient all-reduce.
	score float64
}

func newDepthState(p, dp, m int) *depthState {
	return &depthState{p: p, dp: dp, m: m, cands: make(map[string]sim.Summary)}
}

// record counts a newly simulated candidate: it becomes the incumbent if it
// beats it, and the convergence curve gains a point.
func (d *depthState) record(c scored) {
	d.tel.Candidates++
	if d.tel.Candidates == 1 || candidateLess(c, d.best) {
		d.best = c
		d.tel.Accepted++
	}
	d.tel.Convergence = append(d.tel.Convergence, d.best.sum.IterTime)
}

// candidateLess is the deterministic reduction order: strictly better
// iteration time wins; exact ties break toward the lexicographically smaller
// partition bounds.
func candidateLess(a, b scored) bool {
	if a.sum.IterTime != b.sum.IterTime {
		return a.sum.IterTime < b.sum.IterTime
	}
	return lexLess(a.part.Bounds, b.part.Bounds)
}

func lexLess(a, b []int) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// maxMasterMoves bounds masterMoves' output: two block moves, each with at
// most one rebalanced variant. The engine's move buffer is sized by it so
// generating an item's moves reuses its slots without allocating.
const maxMasterMoves = 4

// engine runs the wave search over one block array. It is not safe for
// concurrent use; every plan call builds its own.
type engine struct {
	opts Options
	bl   *model.Blocks
	// table is Algorithm 1's program over the block weights for the deepest
	// searched depth (fillTable): every depth's seed and every master move's
	// prefix re-balance is a backtrack in it.
	table *partition.Table

	// sim, f and b are the simulation scratch: the flat recurrence arrays
	// and the stage-time buffers of the profile being simulated, sized for
	// the deepest possible partition (one stage per block).
	sim  sim.Scratch
	f, b []float64
	// moves holds the master moves of the item being expanded.
	moves [maxMasterMoves]partition.Partition
	// wave holds the current wave of the depth being searched; next
	// collects the new candidates of its following wave.
	wave, next []scored

	// hits and misses count candidate-map lookups across all depths.
	hits, misses int
}

func newEngine(bl *model.Blocks, opts Options) *engine {
	return &engine{opts: opts, bl: bl, f: make([]float64, bl.Len()), b: make([]float64, bl.Len())}
}

// fillTable fills Algorithm 1's table for depths up to maxP, once per
// search.
func (e *engine) fillTable(maxP int) error {
	table, err := partition.NewTable(e.bl.Weights(), maxP)
	if err != nil {
		return fmt.Errorf("core: seeding: %w", err)
	}
	e.table = table
	return nil
}

// eval returns the summary of part at depth d and whether part is new to
// d's search. A new partition is simulated and counted (record) at once; a
// known one is a hit on d's candidate map. The lookup key is built on the
// stack; only a miss allocates its string.
func (e *engine) eval(d *depthState, part partition.Partition) (scored, bool, error) {
	var buf [64]byte
	k := part.AppendKey(buf[:0])
	if sum, ok := d.cands[string(k)]; ok {
		e.hits++
		return scored{part: part, sum: sum}, false, nil
	}
	e.misses++
	f, b := e.f[:part.Stages()], e.b[:part.Stages()]
	part.StageTimesInto(e.bl, f, b)
	sum, err := e.sim.Summarize(sim.StageProfile{Fwd: f, Bwd: b, Comm: e.bl.Comm, Micro: d.m})
	if err != nil {
		return scored{part: part}, false, err
	}
	d.cands[string(k)] = sum
	c := scored{part: part, sum: sum}
	d.record(c)
	return c, true, nil
}

// expand refines one wave item of depth d: the step-2 cooldown adjustment
// (paper Eq. (1)) — if the adjusted scheme's master stage moved, step 3
// starts from the new master — then the step-3 master moves. It checks ctx
// before every evaluation and returns its error at the first check that
// finds it cancelled. The two steps' wall time is charged to d's AdjustTime
// and MoveTime.
func (e *engine) expand(ctx context.Context, d *depthState, item scored) error {
	sw := obs.NewStopwatch()
	if err := ctx.Err(); err != nil {
		return err
	}
	cur, master := item, item.sum.Master
	if adj, changed := adjustAfterMaster(e.bl, cur.part, master); changed {
		c, _, err := e.eval(d, adj)
		if err != nil {
			return err
		}
		cur, master = c, c.sum.Master
	}
	adjusted := sw.Elapsed()
	d.tel.AdjustTime += adjusted
	defer func() { d.tel.MoveTime += sw.Elapsed() - adjusted }()

	// Step 3 cannot move a master already at stage 0.
	if master == 0 {
		return nil
	}
	for _, mv := range masterMoves(e.table, cur.part, master, e.moves[:0]) {
		if err := ctx.Err(); err != nil {
			return err
		}
		c, fresh, err := e.eval(d, mv)
		if err != nil {
			return err
		}
		// Only schemes whose master moved forward (<= the current master)
		// are refined further; a receding master means the move made
		// things worse.
		if fresh && c.sum.Master <= master {
			e.next = append(e.next, c)
		}
	}
	return nil
}

// search runs depth d to completion: its Algorithm 1 seed, a backtrack in
// the engine's table, then waves of expand until no move is left or the
// budget is spent. It checks ctx before every evaluation and returns its
// error at the first check that finds it cancelled. Wall-clock telemetry
// goes through obs.Stopwatch — never time.Now — so the simclock invariant
// (deterministic packages read no clock that can influence a decision)
// stays machine-checkable.
func (e *engine) search(ctx context.Context, d *depthState) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	sw := obs.NewStopwatch()
	part, err := e.table.Partition(e.bl.Len(), d.p)
	if err != nil {
		return fmt.Errorf("core: seeding depth %d: %w", d.p, err)
	}
	if d.seed, _, err = e.eval(d, part); err != nil {
		return err
	}
	d.tel.SeedTime = sw.Elapsed()

	// A single stage has no master to move and no stage after it to adjust.
	e.wave = e.wave[:0]
	if d.p > 1 {
		e.wave = append(e.wave, d.seed)
	}
	for len(e.wave) > 0 && (e.opts.Budget <= 0 || e.misses < e.opts.Budget) {
		for _, item := range e.wave {
			if err := e.expand(ctx, d, item); err != nil {
				return err
			}
		}
		// Swap rather than discard: next inherits the drained wave's
		// backing, so later waves append into reused capacity.
		e.wave, e.next = e.next, e.wave[:0]
	}
	d.tel.Final = d.best.sum.IterTime
	return nil
}

// publish exports the telemetry of the searched depths ds and the
// engine-level work counts; pruned counts the depths skipped unsearched.
func (e *engine) publish(ds []*depthState, pruned int, total time.Duration) {
	reg := e.opts.Obs
	if reg == nil {
		return
	}
	for _, d := range ds {
		d.tel.Publish(reg, fmt.Sprintf("planner.p%d", d.p))
	}
	reg.Gauge("planner.engine.search_s").Set(total.Seconds())
	reg.Counter("planner.engine.cache_hits").Add(float64(e.hits))
	reg.Counter("planner.engine.cache_misses").Add(float64(e.misses))
	reg.Counter("planner.engine.depths_pruned").Add(float64(pruned))
}

// depthLowerBound returns a sound lower bound on the simulated iteration
// time of ANY partition of bl into p stages with m micro-batches — the
// static bound the cross-depth pruning rule compares against the best score
// of the shallower depths. Three observations, each dropping only
// non-negative communication terms:
//
//  1. every stage serializes its m forwards and m backwards, and the
//     heaviest stage carries at least 1/p of the total block weight;
//  2. the stage holding the heaviest block carries at least that block;
//  3. the last stage holds the final block, the first micro-batch's forward
//     must traverse every earlier stage before the last stage's serialized
//     work, and the final backward must ripple back up.
func depthLowerBound(bl *model.Blocks, p, m int) float64 {
	var total, wMax float64
	for _, blk := range bl.List {
		w := blk.Weight()
		total += w
		if w > wMax {
			wMax = w
		}
	}
	wLast := bl.List[len(bl.List)-1].Weight()
	lb := float64(m) * total / float64(p)
	if v := float64(m) * wMax; v > lb {
		lb = v
	}
	if v := total + float64(m-1)*wLast; v > lb {
		lb = v
	}
	return lb
}

// PlanClusterOpts runs the full AutoPipe planner for a model on a cluster
// with explicit search options and cancellation. It considers every pipeline
// depth that divides the GPU count (AutoPipe keeps the data-parallel size
// uniform across stages — one of the reasons its search is an order of
// magnitude faster than Piper's, §IV-D), shallowest first, and searches
// each to completion unless its lower bound proves it cannot beat the best
// depth so far. A depth the simulator rejects is dropped. It finally sizes
// the micro-batch slicing with Algorithm 2 on the winning partition.
//
// The returned error wraps errdefs.ErrBadConfig for invalid inputs,
// errdefs.ErrInfeasible when no plan fits device memory, and the context
// error when ctx is cancelled or times out.
func PlanClusterOpts(ctx context.Context, mc config.Model, run config.Run, cluster config.Cluster, opts Options) (*plan.Spec, *model.Blocks, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, fmt.Errorf("core: plan %s: %w", mc.Name, err)
	}
	if err := run.Validate(); err != nil {
		return nil, nil, err
	}
	searchSW := obs.NewStopwatch()
	geom := cost.Geometry{MicroBatch: run.MicroBatch, Checkpoint: run.Checkpoint}
	bl, err := model.Build(mc, geom, cluster.Device, cluster.Network, model.SubLayer)
	if err != nil {
		return nil, nil, err
	}
	g := cluster.NumGPUs
	if g <= 0 {
		return nil, nil, fmt.Errorf("%w: core: cluster has no GPUs", errdefs.ErrBadConfig)
	}

	e := newEngine(bl, opts)
	maxP := 0
	for p := 1; p <= g && p <= bl.Len(); p++ {
		if g%p == 0 {
			maxP = p
		}
	}
	if err := e.fillTable(maxP); err != nil {
		return nil, nil, fmt.Errorf("core: plan %s: %w", mc.Name, err)
	}

	// best is both the pruning bound and the reduction: a depth replaces it
	// only on a strictly better score, so exact ties keep the shallowest.
	var (
		searched []*depthState
		best     *depthState
		pruned   int
	)
	for p := 1; p <= maxP; p++ {
		if g%p != 0 {
			continue
		}
		dp := g / p
		m := run.MicroBatches(dp)
		if best != nil && depthLowerBound(bl, p, m) >= best.score {
			pruned++
			continue
		}
		d := newDepthState(p, dp, m)
		err := e.search(ctx, d)
		searched = append(searched, d)
		// A depth the simulator rejects, such as one whose 2·p·m ops exceed
		// its cap, is dropped and the other depths still compete.
		// Cancellation fails the call.
		if errors.Is(err, errdefs.ErrBadConfig) {
			continue
		}
		if err != nil {
			return nil, nil, fmt.Errorf("core: plan %s: %w", mc.Name, err)
		}
		// Exact memory feasibility (AutoPipe plans with the real budget; no
		// conservative margin is needed because the partitioner's load
		// balance keeps estimates tight).
		if ok, _ := memory.Fits(bl, d.best.part, d.m, memory.OneFOneB, 1, cluster.Device); !ok {
			continue
		}
		// Score: simulated iteration time plus the slowest stage's gradient
		// all-reduce across the dp replicas.
		var ar float64
		for _, params := range d.best.part.StageParams(bl) {
			if t := cost.AllReduceTime(params*4, d.dp, cluster.Network); t > ar {
				ar = t
			}
		}
		d.score = d.best.sum.IterTime + ar
		if best == nil || d.score < best.score {
			best = d
		}
	}
	if best == nil {
		e.publish(searched, pruned, searchSW.Elapsed())
		return nil, nil, fmt.Errorf("%w: core: no memory-feasible pipeline plan for %s on %d GPUs at micro-batch %d",
			errdefs.ErrInfeasible, mc.Name, g, run.MicroBatch)
	}
	devs := make([]int, best.p)
	for i := range devs {
		devs[i] = best.dp
	}
	spec := &plan.Spec{
		Planner:      "AutoPipe",
		Partition:    best.best.part,
		StageDevices: devs,
	}

	// Size the warmup micro-batch slicing for the chosen partition.
	if spec.Depth() > 1 {
		sp, err := slicer.SolveProfile(spec.Partition.Profile(bl, best.m))
		if err != nil {
			return nil, nil, err
		}
		spec.NumSliced = sp.NumSliced
		spec.SliceRounds = sp.Rounds
		spec.SliceConverged = sp.Converged
	} else {
		// A single stage has nothing to slice; Algorithm 2 is trivially done.
		spec.SliceConverged = true
	}

	spec.SearchTime = searchSW.Elapsed()
	for _, d := range searched {
		spec.Evaluated += d.tel.Candidates
		spec.Accepted += d.tel.Accepted
	}
	spec.Predicted = best.score
	e.publish(searched, pruned, spec.SearchTime)
	return spec, bl, nil
}

// PlanDepthOpts searches for a balanced partition of bl into p stages for
// iterations of m micro-batches, with explicit search options and
// cancellation.
func PlanDepthOpts(ctx context.Context, bl *model.Blocks, p, m int, opts Options) (*PlanResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: plan depth %d: %w", p, err)
	}
	if p < 1 || p > bl.Len() {
		return nil, fmt.Errorf("%w: core: depth %d out of range [1, %d]", errdefs.ErrBadConfig, p, bl.Len())
	}
	if m <= 0 {
		return nil, fmt.Errorf("%w: core: micro-batch count must be positive, got %d", errdefs.ErrBadConfig, m)
	}
	e := newEngine(bl, opts)
	d := newDepthState(p, 0, m)
	if err := e.fillTable(p); err != nil {
		return nil, fmt.Errorf("core: plan depth %d: %w", p, err)
	}
	if err := e.search(ctx, d); err != nil {
		return nil, fmt.Errorf("core: plan depth %d: %w", p, err)
	}
	e.publish([]*depthState{d}, 0, d.tel.SeedTime+d.tel.AdjustTime+d.tel.MoveTime)
	// The search ran on summaries; materialize the full simulation of the
	// two candidates the result carries.
	best, err := evaluate(bl, d.best.part, m)
	if err != nil {
		return nil, err
	}
	seed, err := evaluate(bl, d.seed.part, m)
	if err != nil {
		return nil, err
	}
	return &PlanResult{Best: best, Seed: seed, Evaluated: d.tel.Candidates, Telemetry: d.tel}, nil
}
