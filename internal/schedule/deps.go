package schedule

import (
	"fmt"

	"autopipe/internal/errdefs"
)

// This file is the schedule dependency model: the definition of "op A must
// complete before op B may start" that the runtime sanitizer (exec.Sanitizer)
// replays every executed trace against, op by op. A cycle in these edges is a
// schedule that can never finish; the executor itself reports it as
// errdefs.ErrDeadlock when no device can make progress.
//
// The edges mirror the discrete-event executor's blocking semantics:
//
//   - ops on one device run in issue order;
//   - a forward at virtual stage v > 0 needs the matching forward's output
//     from stage v-1 (both halves, when the producer is sliced and the
//     consumer is not); a NoSend producer satisfies nothing — its payload
//     arrives with the sibling half's aggregated send, so the edge redirects
//     to the AggSend sibling;
//   - a backward at stage v < V-1 needs the backward gradient from v+1;
//   - a backward needs its own stage's forward stash (every half present).

// OpRef names one op by position: index i in device d's issue order.
type OpRef struct {
	Device, Index int
}

// DepGraph is the dependency graph of one schedule over flattened op ids
// (device-major issue order). Build it with Schedule.Dependencies.
type DepGraph struct {
	s *Schedule
	// base[d] is the flat id of device d's first op.
	base []int
	// all[id] is a view into one shared backing array (comb) listing every
	// id that must complete before id starts: the same-device issue-order
	// predecessor (if any) followed by the data dependencies. Sharing one
	// backing keeps Preds allocation-free, which the sanitizer's per-op
	// happens-before check (the executor's inner loop) depends on.
	all   [][]int
	comb  []int
	total int
}

// ID flattens an op reference. The inverse is Ref.
func (g *DepGraph) ID(r OpRef) int { return g.base[r.Device] + r.Index }

// Ref unflattens an op id.
func (g *DepGraph) Ref(id int) OpRef {
	d := len(g.base) - 1
	for g.base[d] > id {
		d--
	}
	return OpRef{d, id - g.base[d]}
}

// Op returns the schedule op an id refers to.
func (g *DepGraph) Op(id int) Op {
	r := g.Ref(id)
	return g.s.Ops[r.Device][r.Index]
}

// NumOps returns the total op count across devices.
func (g *DepGraph) NumOps() int { return g.total }

// Preds returns the flat ids of the op's cross-op dependencies: the
// same-device issue-order predecessor (if any) followed by the data
// dependencies the executor blocks on. The returned slice is a view into
// the graph's shared backing — read-only, valid for the graph's lifetime,
// and allocation-free to obtain.
func (g *DepGraph) Preds(id int) []int { return g.all[id] }

// stashHalves enumerates the half labels a backward's forward stash can
// carry: an unsliced forward (-1) or either sliced half.
var stashHalves = [3]int{-1, 0, 1}

// Dependencies builds the dependency graph of the schedule. It fails with an
// error wrapping errdefs.ErrBadConfig when an op's producer is missing or a
// NoSend forward has no aggregating sibling to carry its payload — the same
// structural defects the executor would hit as an unresolvable wait.
func (s *Schedule) Dependencies() (*DepGraph, error) {
	type prodKey struct {
		virt, micro, half int
		kind              OpKind
	}
	g := &DepGraph{s: s, base: make([]int, len(s.Ops))}
	for d := range s.Ops {
		g.base[d] = g.total
		g.total += len(s.Ops[d])
	}
	preds := make([][]int, g.total)

	producers := make(map[prodKey]int, g.total)
	for d, ops := range s.Ops {
		for i, op := range ops {
			producers[prodKey{op.Virt, op.Micro, op.Half, op.Kind}] = g.base[d] + i
		}
	}
	// fwdProducer resolves the forward op that actually delivers (virt,
	// micro, half) downstream, following a NoSend op to its aggregating
	// sibling.
	fwdProducer := func(virt, micro, half int) (int, error) {
		id, ok := producers[prodKey{virt, micro, half, Fwd}]
		if !ok {
			if id, ok = producers[prodKey{virt, micro, -1, Fwd}]; ok {
				return id, nil // consumer is sliced, producer is not
			}
			return 0, fmt.Errorf("%w: schedule %s: no forward producer for micro %d half %d at virtual stage %d",
				errdefs.ErrBadConfig, s.Name, micro, half, virt)
		}
		if g.Op(id).NoSend {
			sib, ok := producers[prodKey{virt, micro, 1 - half, Fwd}]
			if !ok || !g.Op(sib).AggSend {
				return 0, fmt.Errorf("%w: schedule %s: forward µ%d half %d at virtual stage %d is NoSend with no aggregating sibling",
					errdefs.ErrBadConfig, s.Name, micro, half, virt)
			}
			return sib, nil
		}
		return id, nil
	}

	for d, ops := range s.Ops {
		for i, op := range ops {
			cur := g.base[d] + i
			switch op.Kind {
			case Fwd:
				if op.Virt == 0 {
					continue
				}
				halves := [2]int{op.Half}
				nh := 1
				if op.Half == -1 {
					// A full consumer of a sliced producer needs both halves.
					if _, ok := producers[prodKey{op.Virt - 1, op.Micro, -1, Fwd}]; !ok {
						halves, nh = [2]int{0, 1}, 2
					}
				}
				for _, h := range halves[:nh] {
					from, err := fwdProducer(op.Virt-1, op.Micro, h)
					if err != nil {
						return nil, err
					}
					preds[cur] = append(preds[cur], from)
				}
			case Bwd:
				if op.Virt < s.VirtStages-1 {
					from, ok := producers[prodKey{op.Virt + 1, op.Micro, -1, Bwd}]
					if !ok {
						return nil, fmt.Errorf("%w: schedule %s: no backward producer for micro %d at virtual stage %d",
							errdefs.ErrBadConfig, s.Name, op.Micro, op.Virt+1)
					}
					preds[cur] = append(preds[cur], from)
				}
				// Own stage's forward stash (every half that exists).
				for _, h := range stashHalves {
					if from, ok := producers[prodKey{op.Virt, op.Micro, h, Fwd}]; ok {
						preds[cur] = append(preds[cur], from)
					}
				}
			}
		}
	}

	// Flatten into the shared backing: per op, the issue-order edge (if any)
	// followed by its data dependencies, with all as sub-slice views.
	edges := 0
	for d := range s.Ops {
		if n := len(s.Ops[d]); n > 0 {
			edges += n - 1
		}
	}
	for _, ps := range preds {
		edges += len(ps)
	}
	g.comb = make([]int, 0, edges)
	g.all = make([][]int, g.total)
	for d := range s.Ops {
		for i := range s.Ops[d] {
			id := g.base[d] + i
			lo := len(g.comb)
			if i > 0 {
				g.comb = append(g.comb, id-1)
			}
			g.comb = append(g.comb, preds[id]...)
			g.all[id] = g.comb[lo:len(g.comb):len(g.comb)]
		}
	}
	return g, nil
}
