package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
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

// This file implements the concurrent plan-space search engine behind the
// Planner API. The search fans out across pipeline depths × replication
// factors × candidate partitions on a bounded worker pool, with a memoized
// simulation cache and a shared best-so-far bound for cross-depth pruning.
//
// Determinism is by construction, not by luck: the search advances in global
// waves. Each wave is a fixed, ordered list of candidate expansions; workers
// evaluate them concurrently into private slots (all simulator calls are
// pure and memoized), and then a single sequential merge replays the slots
// in wave order to update the incumbent, the visited set, and the next wave.
// Parallelism therefore changes only how fast a wave is evaluated — never
// which candidates are explored, which one wins, or any telemetry counter —
// so parallel and sequential runs return byte-identical plans.

// Options configures the plan-space search engine. The zero value searches
// with GOMAXPROCS workers, no candidate budget, and no telemetry registry.
type Options struct {
	// Parallelism is the worker-pool size evaluating candidate partitions;
	// <= 0 means GOMAXPROCS. Plans are identical at every setting.
	Parallelism int
	// Budget caps the number of distinct candidate partitions the engine
	// simulates across the whole search (0 = unlimited). It is checked at
	// wave boundaries — the wave in flight completes, so the cap can be
	// overshot by one wave — and the truncated search still returns the best
	// plan found, deterministically.
	Budget int
	// Obs, when non-nil, receives search telemetry: per-depth counters under
	// "planner.p<depth>.*" and engine-level metrics under "planner.engine.*".
	Obs *obs.Registry
}

func (o Options) parallelism() int {
	if o.Parallelism <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.Parallelism
}

// runTasks evaluates task(w, 0..n) with at most width concurrent workers,
// w in [0, width) naming the worker that runs the task so it can use that
// worker's scratch. Tasks write results into their own pre-allocated slots;
// the caller merges them in deterministic order afterwards. Cancellation is
// checked between tasks; in-flight tasks finish.
func runTasks(ctx context.Context, width, n int, task func(w, i int)) {
	if width > n {
		width = n
	}
	if width <= 1 {
		for i := 0; i < n; i++ {
			if ctx.Err() != nil {
				return
			}
			task(0, i)
		}
		return
	}
	idx := make(chan int) //lint:allow hotalloc per-wave worker pool, bounded by parallelism
	var wg sync.WaitGroup
	wg.Add(width)
	for w := 0; w < width; w++ {
		go func() { //lint:allow hotalloc per-wave worker pool, bounded by parallelism
			defer wg.Done()
			for i := range idx {
				if ctx.Err() == nil {
					task(w, i)
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
}

// scored is the engine's form of a candidate: a partition, its Key (the
// visited-set and cache identity, computed once), and the simulator summary
// the search decides on. The full sim.Result is materialized only for the
// candidates a PlanResult returns.
type scored struct {
	part partition.Partition
	key  string
	sum  sim.Summary
}

// worker is one search worker's reusable simulation scratch: the flat
// recurrence arrays and the stage-time buffers of the profile it simulates,
// sized for the deepest possible partition (one stage per block).
type worker struct {
	sim  sim.Scratch
	f, b []float64
}

func newWorker(bl *model.Blocks) worker {
	return worker{f: make([]float64, bl.Len()), b: make([]float64, bl.Len())}
}

// summarize simulates part with m micro-batches on the worker's scratch.
func (w *worker) summarize(bl *model.Blocks, part partition.Partition, m int) (sim.Summary, error) {
	f, b := w.f[:part.Stages()], w.b[:part.Stages()]
	part.StageTimesInto(bl, f, b)
	return w.sim.Summarize(sim.StageProfile{Fwd: f, Bwd: b, Comm: bl.Comm, Micro: m})
}

// cacheKey identifies one simulator evaluation: the partition bounds plus the
// micro-batch count (different depths plan with different counts).
type cacheKey struct {
	part  string
	micro int
}

type cacheEntry struct {
	// ready is released once sum and err are final.
	ready sync.WaitGroup
	sum   sim.Summary
	err   error
}

// simCache memoizes simulator evaluations. It is safe for concurrent
// callers: the first caller of a key computes it, and concurrent callers of
// the same key block on that computation and share the result instead of
// duplicating it.
type simCache struct {
	mu           sync.Mutex
	entries      map[cacheKey]*cacheEntry
	hits, misses atomic.Int64
}

// eval returns the summary of part (whose Key is key) with m micro-batches,
// simulating it on w's scratch if no caller has before.
func (c *simCache) eval(w *worker, bl *model.Blocks, part partition.Partition, key string, m int) (scored, error) {
	k := cacheKey{part: key, micro: m}
	c.mu.Lock()
	e, hit := c.entries[k]
	if !hit {
		e = new(cacheEntry) //lint:allow hotalloc once per distinct cache key
		e.ready.Add(1)
		c.entries[k] = e
	}
	c.mu.Unlock()
	if hit {
		c.hits.Add(1)
		e.ready.Wait()
	} else {
		c.misses.Add(1)
		e.sum, e.err = w.summarize(bl, part, m)
		e.ready.Done()
	}
	return scored{part: part, key: key, sum: e.sum}, e.err
}

// depthState is one fixed-depth search progressing through global waves.
type depthState struct {
	p, dp, m int
	// lowerBound is a sound lower bound on the score of any plan this depth
	// can produce; the cross-depth pruning rule compares it against the
	// shared best-so-far bound.
	lowerBound float64

	seen map[string]bool
	tel  Telemetry
	best scored
	seed scored
	wave []scored
	next []scored

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

// record accounts one evaluated candidate in deterministic merge order and
// reports whether it is new to this depth's search.
func (d *depthState) record(c scored) bool {
	if d.seen[c.key] {
		return false
	}
	d.seen[c.key] = true
	d.tel.Candidates++
	if d.tel.Candidates == 1 || candidateLess(c, d.best) {
		d.best = c
		d.tel.Accepted++
	}
	d.tel.Convergence = append(d.tel.Convergence, d.best.sum.IterTime)
	return true
}

// candidateLess is the deterministic reduction order: strictly better
// iteration time wins; exact ties break toward the lexicographically smaller
// partition bounds so parallel and sequential runs agree bit-for-bit.
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
// most one rebalanced variant. The fixed-size arrays in expansion are sized
// by it so phase B evaluates into pre-existing slots without allocating.
const maxMasterMoves = 4

// expansion is the parallel-phase slot of one wave item: the step-2 adjusted
// continuation (phase A) and the evaluated step-3 master moves (phase B).
type expansion struct {
	d    *depthState
	item scored

	// adj is the evaluated step-2 adjustment (adjusted is false when it left
	// the partition unchanged); cur/master are the continuation point for
	// step 3.
	adj      scored
	adjusted bool
	cur      scored
	master   int
	err      error

	moves    []partition.Partition // backed by moveBuf
	moveBuf  [maxMasterMoves]partition.Partition
	moveCand [maxMasterMoves]scored
	moveErr  [maxMasterMoves]error
}

// seedSlot, spec, and moveRef are the per-task slots of the three stored
// worker tasks (seedTask, phaseATask, phaseBTask).
type seedSlot struct {
	cand scored
	err  error
}

// spec is one speculative cache-warming evaluation.
type spec struct {
	part partition.Partition
	m    int
}

// moveRef addresses one master-move evaluation: expansion x, move index j.
type moveRef struct {
	x *expansion
	j int
}

// engine runs wave-synchronous searches over one block array.
type engine struct {
	opts  Options
	par   int
	bl    *model.Blocks
	cache simCache
	// table is Algorithm 1's program over the block weights for the deepest
	// searched depth, filled once per search: every depth's seed and every
	// master move's prefix re-balance is a backtrack in it.
	table *partition.Table
	// workers holds one simulation scratch per worker-pool slot.
	workers []worker
	// prefetch enables speculative evaluation: while phase A computes an
	// item's cooldown adjustment, idle workers warm the cache with the
	// master moves of the unadjusted partition — exactly phase B's task
	// list whenever the adjustment turns out to be a no-op, which is the
	// common case near convergence. Speculation only ever touches the
	// cache, so results are identical with it on or off; it is disabled
	// when there are no spare cores to run it on.
	prefetch bool

	// Wave-scratch arenas, truncated and refilled every wave so the search
	// loop reuses their backing instead of reallocating per wave, and the
	// current depth list the seed task indexes into.
	ds        []*depthState
	seedSlots []seedSlot
	exps      []expansion
	specs     []spec
	refs      []moveRef
	moveBuf   []partition.Partition

	// The worker tasks, bound once at construction: handing runTasks a
	// stored value instead of a per-wave closure keeps closure creation out
	// of the wave loop.
	taskSeed, taskAB, taskB func(w, i int)
}

func newEngine(bl *model.Blocks, opts Options) *engine {
	e := &engine{opts: opts, par: opts.parallelism(), bl: bl}
	e.cache.entries = make(map[cacheKey]*cacheEntry)
	e.workers = make([]worker, e.par)
	for i := range e.workers {
		e.workers[i] = newWorker(bl)
	}
	e.prefetch = e.par > 1 && runtime.NumCPU() > 1
	e.taskSeed = e.seedTask
	e.taskAB = e.phaseATask
	e.taskB = e.phaseBTask
	return e
}

// seedTask evaluates depth e.ds[i]'s Algorithm 1 seed into e.seedSlots[i].
// runTasks reaches it through the stored e.taskSeed binding, which the
// static call graph cannot follow — hence its own hot annotation.
//
//hot:runs on the search worker pool
func (e *engine) seedTask(w, i int) {
	d := e.ds[i]
	part, err := e.table.Partition(e.bl.Len(), d.p)
	if err != nil {
		e.seedSlots[i].err = fmt.Errorf("core: seeding depth %d: %w", d.p, err)
		return
	}
	e.seedSlots[i].cand, e.seedSlots[i].err = e.cache.eval(&e.workers[w], e.bl, part, part.Key(), d.m)
}

// phaseATask runs one phase-A slot: a cooldown adjustment for i < len(exps),
// a speculative cache warm above that.
//
//hot:runs on the search worker pool
func (e *engine) phaseATask(w, i int) {
	if i < len(e.exps) {
		e.expandA(&e.workers[w], &e.exps[i])
		return
	}
	s := e.specs[i-len(e.exps)]
	e.cache.eval(&e.workers[w], e.bl, s.part, s.part.Key(), s.m) //nolint:errcheck // cache-warming only
}

// phaseBTask evaluates one master-move candidate into its expansion slot.
//
//hot:runs on the search worker pool
func (e *engine) phaseBTask(w, i int) {
	r := e.refs[i]
	mv := r.x.moves[r.j]
	r.x.moveCand[r.j], r.x.moveErr[r.j] = e.cache.eval(&e.workers[w], e.bl, mv, mv.Key(), r.x.d.m)
}

// expandA runs the step-2 cooldown adjustment for one wave item (paper
// Eq. (1)): evaluate the adjusted suffix and continue from it — if its
// master stage moved, step 3 starts from the new master.
func (e *engine) expandA(w *worker, x *expansion) {
	cur := x.item
	x.cur, x.master = cur, cur.sum.Master
	if adj, changed := adjustAfterMaster(e.bl, cur.part, x.master); changed {
		c, err := e.cache.eval(w, e.bl, adj, adj.Key(), x.d.m)
		if err != nil {
			x.err = err
			return
		}
		x.adj, x.adjusted = c, true
		x.cur, x.master = c, c.sum.Master
	}
	// Step 3 cannot move a master already at stage 0; generate the move
	// candidates here (cheap and pure) so phase B is a flat evaluation list.
	if x.master > 0 {
		x.moves = masterMoves(e.table, x.cur.part, x.master, x.moveBuf[:0])
	}
}

// run advances every depth in ds through synchronized waves until all are
// done. prune (may be nil) is consulted at wave boundaries to abandon depths
// that provably cannot win; onComplete (may be nil) fires in deterministic
// order when a depth finishes searching, and typically updates the shared
// bound prune reads.
//
//hot:the wave loop of every plan search
func (e *engine) run(ctx context.Context, ds []*depthState, prune func(*depthState) bool, onComplete func(*depthState)) error {
	finish := func(d *depthState) {
		d.done = true
		d.tel.Final = d.best.sum.IterTime
		if onComplete != nil {
			onComplete(d)
		}
	}

	// Seed wave: fill Algorithm 1's table once for the deepest depth, then
	// evaluate every depth's seed concurrently. Wall-clock telemetry goes
	// through obs.Stopwatch — never time.Now — so the simclock invariant
	// (deterministic packages read no clock that can influence a decision)
	// stays machine-checkable.
	seedSW := obs.NewStopwatch()
	maxP := 0
	for _, d := range ds {
		maxP = max(maxP, d.p)
	}
	table, err := partition.NewTable(e.bl.Weights(), maxP)
	if err != nil {
		return fmt.Errorf("core: seeding: %w", err)
	}
	e.table = table
	e.ds = ds
	e.seedSlots = make([]seedSlot, len(ds))
	runTasks(ctx, e.par, len(ds), e.taskSeed)
	if err := ctx.Err(); err != nil {
		return err
	}
	seedDur := seedSW.Elapsed()
	for i, d := range ds {
		d.tel.SeedTime = seedDur
		if e.seedSlots[i].err != nil {
			d.err = e.seedSlots[i].err
			d.done = true
			continue
		}
		d.seed = e.seedSlots[i].cand
		d.record(d.seed)
		if d.p == 1 {
			finish(d)
		} else {
			d.wave = d.wave[:0]
			d.wave = append(d.wave, d.seed)
		}
	}

	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		// Budget and pruning gates, on merged (deterministic) state only.
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
		e.exps = e.exps[:0]
		for _, d := range ds {
			if d.done {
				continue
			}
			for _, item := range d.wave {
				e.exps = append(e.exps, expansion{d: d, item: item})
			}
		}
		if len(e.exps) == 0 {
			return nil
		}

		// Phase A: cooldown adjustments, one task per wave item. With spare
		// workers, speculative tasks warm the cache with each item's
		// pre-adjustment master moves; when the adjustment is a no-op those
		// are phase B's exact evaluations, collapsing the round's critical
		// path from two sequential simulations to one.
		adjustSW := obs.NewStopwatch()
		e.specs = e.specs[:0]
		if e.prefetch {
			for xi := range e.exps {
				x := &e.exps[xi]
				if i := x.item.sum.Master; i > 0 {
					e.moveBuf = masterMoves(e.table, x.item.part, i, e.moveBuf[:0])
					for _, mv := range e.moveBuf {
						e.specs = append(e.specs, spec{mv, x.d.m})
					}
				}
			}
		}
		runTasks(ctx, e.par, len(e.exps)+len(e.specs), e.taskAB)
		if err := ctx.Err(); err != nil {
			return err
		}
		adjustDur := adjustSW.Elapsed()

		// Phase B: master-move evaluations, one task per candidate.
		moveSW := obs.NewStopwatch()
		e.refs = e.refs[:0]
		for xi := range e.exps {
			x := &e.exps[xi]
			if x.err != nil {
				continue
			}
			for j := range x.moves {
				e.refs = append(e.refs, moveRef{x, j})
			}
		}
		runTasks(ctx, e.par, len(e.refs), e.taskB)
		if err := ctx.Err(); err != nil {
			return err
		}
		moveDur := moveSW.Elapsed()

		// Merge: replay every expansion in wave order.
		for xi := range e.exps {
			x := &e.exps[xi]
			d := x.d
			if d.err != nil {
				continue
			}
			if x.err != nil {
				d.err = x.err
				continue
			}
			if x.adjusted {
				d.record(x.adj)
			}
			if x.master == 0 {
				continue
			}
			for j, c := range x.moveCand[:len(x.moves)] {
				if x.moveErr[j] != nil {
					d.err = x.moveErr[j]
					break
				}
				// Only schemes whose master moved forward (<= the current
				// master) are refined further; a receding master means the
				// move made things worse.
				if fresh := d.record(c); fresh && c.sum.Master <= x.master {
					d.next = append(d.next, c)
				}
			}
		}
		for _, d := range ds {
			if d.done {
				continue
			}
			d.tel.AdjustTime += adjustDur
			d.tel.MoveTime += moveDur
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
	reg.Gauge("planner.engine.parallelism").Set(float64(e.par))
	reg.Counter("planner.engine.cache_hits").Add(float64(e.cache.hits.Load()))
	reg.Counter("planner.engine.cache_misses").Add(float64(e.cache.misses.Load()))
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
// magnitude faster than Piper's, §IV-D), searches all depths concurrently on
// one worker pool, prunes depths whose lower bound cannot beat the shared
// best-so-far score, and finally sizes the micro-batch slicing with
// Algorithm 2 on the winning partition.
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
		ds = append(ds, &depthState{
			p: p, dp: dp, m: m,
			lowerBound: depthLowerBound(bl, p, m),
			seen:       make(map[string]bool),
		})
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
// cancellation. Candidate evaluation fans out on the engine's worker pool;
// the result is identical at every parallelism setting.
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
	d := &depthState{p: p, m: m, seen: make(map[string]bool)}
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
