package core

import (
	"context"
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
// One call searches every pipeline depth of a plan serially, with one
// candidate map per depth — every partition that depth has simulated, so
// none is simulated twice — and a shared best-so-far bound for cross-depth
// pruning.
// Concurrency comes from the callers, not the engine: each call builds its
// own engine, so concurrent calls share nothing.
//
// The search advances every depth in lockstep waves. Within a wave each
// depth expands its items in order, one serial pass per item: the step-2
// cooldown adjustment, then the step-3 master moves from the adjusted
// scheme. A candidate is counted the moment it is simulated, and a new one
// whose master did not recede joins the depth's next wave. The budget and
// pruning gates run only between waves, so the same inputs always explore
// the same candidates, pick the same plan and count the same work.

// Options configures the plan-space search engine. The zero value searches
// with no candidate budget and no telemetry registry.
type Options struct {
	// Budget caps the number of distinct candidate partitions the engine
	// simulates across the whole search (0 = unlimited). It is checked at
	// wave boundaries — the wave in flight completes, so the cap can be
	// overshot by one wave — and the truncated search still returns the best
	// plan found, deterministically.
	Budget int
	// Obs, when non-nil, receives search telemetry: per-depth metrics under
	// "planner.p<depth>.*" (Telemetry.Publish: candidate and accepted-move
	// counters, gauges for the final iteration time and the depth's own
	// seed, adjust and move times, and a convergence histogram) and
	// engine-level metrics under "planner.engine.*". The depths' phase times
	// are disjoint, so summed over depths they stay within
	// planner.engine.search_s.
	Obs *obs.Registry
}

// scored is the engine's form of a candidate: a partition and the simulator
// summary the search decides on. The full sim.Result is materialized only
// for the candidates a PlanResult returns.
type scored struct {
	part partition.Partition
	sum  sim.Summary
}

// depthState is one fixed-depth search progressing through global waves.
type depthState struct {
	p, dp, m int
	// lowerBound is a sound lower bound on the score of any plan this depth
	// can produce; the cross-depth pruning rule compares it against the
	// shared best-so-far bound.
	lowerBound float64

	// cands holds the summary of every partition of this depth the search
	// has simulated, under its Key. Partitions of different depths never
	// share a key (their bounds differ in length) and a depth plans with one
	// micro-batch count, so the key alone identifies a simulation.
	cands map[string]sim.Summary
	tel   Telemetry
	best  scored
	seed  scored
	wave  []scored
	next  []scored

	done bool
	// pruned marks a depth abandoned because lowerBound proved it cannot
	// beat an already-completed depth; its partial telemetry is kept but it
	// is excluded from the final reduction.
	pruned bool
	// truncated marks a depth stopped by the search budget; its best-so-far
	// still competes in the reduction.
	truncated bool
	err       error

	// Completion outputs (valid once done && err == nil && !pruned).
	feasible bool
	score    float64
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

// engine runs one wave search over one block array. It is not safe for
// concurrent use; every plan call builds its own.
type engine struct {
	opts Options
	bl   *model.Blocks
	// table is Algorithm 1's program over the block weights for the deepest
	// searched depth, filled once per search: every depth's seed and every
	// master move's prefix re-balance is a backtrack in it.
	table *partition.Table

	// sim, f and b are the simulation scratch: the flat recurrence arrays
	// and the stage-time buffers of the profile being simulated, sized for
	// the deepest possible partition (one stage per block).
	sim  sim.Scratch
	f, b []float64
	// moves holds the master moves of the item being expanded.
	moves [maxMasterMoves]partition.Partition

	// hits and misses count candidate-map lookups across all depths.
	hits, misses int
}

func newEngine(bl *model.Blocks, opts Options) *engine {
	return &engine{opts: opts, bl: bl, f: make([]float64, bl.Len()), b: make([]float64, bl.Len())}
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
// finds it cancelled; a simulation error becomes d.err. The two steps' wall
// time is charged to d's AdjustTime and MoveTime.
func (e *engine) expand(ctx context.Context, d *depthState, item scored) error {
	sw := obs.NewStopwatch()
	if err := ctx.Err(); err != nil {
		return err
	}
	cur, master := item, item.sum.Master
	if adj, changed := adjustAfterMaster(e.bl, cur.part, master); changed {
		c, _, err := e.eval(d, adj)
		if err != nil {
			d.err = err
			return nil
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
			d.err = err
			return nil
		}
		// Only schemes whose master moved forward (<= the current master)
		// are refined further; a receding master means the move made
		// things worse.
		if fresh && c.sum.Master <= master {
			d.next = append(d.next, c)
		}
	}
	return nil
}

// run advances every depth in ds through synchronized waves until all are
// done. It checks ctx before every seed, adjustment and move evaluation and
// returns its error at the first check that finds it cancelled. prune (may
// be nil) is consulted at wave boundaries to abandon depths that provably
// cannot win; onComplete (may be nil) fires in depth order when a depth
// finishes searching, and typically updates the shared bound prune reads.
func (e *engine) run(ctx context.Context, ds []*depthState, prune func(*depthState) bool, onComplete func(*depthState)) error {
	finish := func(d *depthState) {
		d.done = true
		d.tel.Final = d.best.sum.IterTime
		if onComplete != nil {
			onComplete(d)
		}
	}

	// Seed wave: fill Algorithm 1's table once for the deepest depth, then
	// backtrack and evaluate every depth's seed. The table fill is shared,
	// so no depth's SeedTime includes it. Wall-clock telemetry goes through
	// obs.Stopwatch — never time.Now — so the simclock invariant
	// (deterministic packages read no clock that can influence a decision)
	// stays machine-checkable.
	maxP := 0
	for _, d := range ds {
		maxP = max(maxP, d.p)
	}
	table, err := partition.NewTable(e.bl.Weights(), maxP)
	if err != nil {
		return fmt.Errorf("core: seeding: %w", err)
	}
	e.table = table
	for _, d := range ds {
		if err := ctx.Err(); err != nil {
			return err
		}
		sw := obs.NewStopwatch()
		if part, err := e.table.Partition(e.bl.Len(), d.p); err != nil {
			d.err = fmt.Errorf("core: seeding depth %d: %w", d.p, err)
		} else {
			d.seed, _, d.err = e.eval(d, part)
		}
		d.tel.SeedTime = sw.Elapsed()
		switch {
		case d.err != nil:
			d.done = true
		case d.p == 1:
			finish(d)
		default:
			d.wave = append(d.wave[:0], d.seed)
		}
	}

	for {
		// Budget and pruning gates, between waves only.
		if e.opts.Budget > 0 {
			total := 0
			for _, d := range ds {
				total += d.tel.Candidates
			}
			if total >= e.opts.Budget {
				for _, d := range ds {
					if !d.done {
						d.truncated = true
						finish(d)
					}
				}
			}
		}
		if prune != nil {
			for _, d := range ds {
				if !d.done && prune(d) {
					d.pruned = true
					d.done = true
				}
			}
		}
		active := false
		for _, d := range ds {
			if d.done {
				continue
			}
			active = true
			for _, item := range d.wave {
				if err := e.expand(ctx, d, item); err != nil {
					return err
				}
				if d.err != nil {
					break
				}
			}
			if d.err != nil {
				d.done = true
				continue
			}
			// Swap rather than discard: next inherits the drained wave's
			// backing, so steady-state rounds append into reused capacity.
			d.wave, d.next = d.next, d.wave[:0]
			if len(d.wave) == 0 {
				finish(d)
			}
		}
		if !active {
			return nil
		}
	}
}

func (e *engine) publish(ds []*depthState, total time.Duration) {
	reg := e.opts.Obs
	if reg == nil {
		return
	}
	pruned := 0
	for _, d := range ds {
		d.tel.Publish(reg, fmt.Sprintf("planner.p%d", d.p))
		if d.pruned {
			pruned++
		}
	}
	reg.Gauge("planner.engine.search_s").Set(total.Seconds())
	reg.Counter("planner.engine.cache_hits").Add(float64(e.hits))
	reg.Counter("planner.engine.cache_misses").Add(float64(e.misses))
	reg.Counter("planner.engine.depths_pruned").Add(float64(pruned))
}

// depthLowerBound returns a sound lower bound on the simulated iteration
// time of ANY partition of bl into p stages with m micro-batches — the
// static bound the cross-depth pruning rule compares against the shared
// best-so-far score. Three observations, each dropping only non-negative
// communication terms:
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
// magnitude faster than Piper's, §IV-D), searches all depths in lockstep
// waves, prunes depths whose lower bound cannot beat the shared best-so-far
// score, and finally sizes the micro-batch slicing with Algorithm 2 on the
// winning partition.
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
	var ds []*depthState
	for p := 1; p <= g && p <= bl.Len(); p++ {
		if g%p != 0 {
			continue
		}
		dp := g / p
		m := run.MicroBatches(dp)
		d := newDepthState(p, dp, m)
		d.lowerBound = depthLowerBound(bl, p, m)
		ds = append(ds, d)
	}

	// Shared best-so-far bound across depths, updated in deterministic merge
	// order as depths complete.
	var (
		bound     float64
		haveBound bool
	)
	onComplete := func(d *depthState) {
		// Exact memory feasibility (AutoPipe plans with the real budget; no
		// conservative margin is needed because the partitioner's load
		// balance keeps estimates tight).
		if ok, _ := memory.Fits(bl, d.best.part, d.m, memory.OneFOneB, 1, cluster.Device); !ok {
			return
		}
		d.feasible = true
		// Score: simulated iteration time plus the slowest stage's gradient
		// all-reduce across the dp replicas.
		var ar float64
		for _, params := range d.best.part.StageParams(bl) {
			if t := cost.AllReduceTime(params*4, d.dp, cluster.Network); t > ar {
				ar = t
			}
		}
		d.score = d.best.sum.IterTime + ar
		if !haveBound || d.score < bound {
			bound, haveBound = d.score, true
		}
	}
	prune := func(d *depthState) bool { return haveBound && d.lowerBound >= bound }
	if err := e.run(ctx, ds, prune, onComplete); err != nil {
		return nil, nil, fmt.Errorf("core: plan %s: %w", mc.Name, err)
	}

	// Deterministic reduction in ascending depth order; strict improvement
	// keeps the shallowest plan on exact score ties.
	var best *depthState
	evaluated, accepted := 0, 0
	for _, d := range ds {
		evaluated += d.tel.Candidates
		accepted += d.tel.Accepted
		if d.err != nil || d.pruned || !d.feasible {
			continue
		}
		if best == nil || d.score < best.score {
			best = d
		}
	}
	if best == nil {
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
	spec.Evaluated = evaluated
	spec.Accepted = accepted
	spec.Predicted = best.score
	e.publish(ds, spec.SearchTime)
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
	if err := e.run(ctx, []*depthState{d}, nil, nil); err != nil {
		return nil, fmt.Errorf("core: plan depth %d: %w", p, err)
	}
	if d.err != nil {
		return nil, d.err
	}
	e.publish([]*depthState{d}, d.tel.SeedTime+d.tel.AdjustTime+d.tel.MoveTime)
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
