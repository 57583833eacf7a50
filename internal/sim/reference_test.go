package sim

import (
	"fmt"
	"math"

	"autopipe/internal/errdefs"
)

// This file keeps a pointer-graph implementation of the simulator as a
// test-only reference oracle: one heap node per op, cross-stage lookup
// tables, and a worklist sweep to the fixed point. It shares nothing with
// Scratch beyond the Op/Result types and Validate, so parity between the two
// checks the flat recurrence's evaluation order, position arithmetic, and
// critical-path walk.

// refNode is one op of the reference graph with its bookkeeping.
type refNode struct {
	op *Op
	// pos is the op's index within its stage's execution order.
	pos int
	// critPred encodes which dependency determined Start: -1 none, 0
	// same-stage predecessor, 1 cross-stage predecessor.
	critPred int
}

// refSimulate is the reference implementation of SimulateProfile.
func refSimulate(p StageProfile) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	f, b, comm, m := p.Fwd, p.Bwd, p.Comm, p.Micro
	n := len(f)

	nodes := refSchedule(n, m)
	fwdAt := make([][]*refNode, n)
	bwdAt := make([][]*refNode, n)
	for x := 0; x < n; x++ {
		fwdAt[x] = make([]*refNode, m)
		bwdAt[x] = make([]*refNode, m)
		for _, nd := range nodes[x] {
			if nd.op.Kind == Fwd {
				fwdAt[x][nd.op.Micro] = nd
			} else {
				bwdAt[x][nd.op.Micro] = nd
			}
		}
	}

	done := make([]int, n)
	total := 2 * n * m
	for finalized := 0; finalized < total; {
		progressed := false
		for x := 0; x < n; x++ {
			for done[x] < len(nodes[x]) {
				nd := nodes[x][done[x]]
				ready, start, critPred := refStart(nd, nodes, fwdAt, bwdAt, done, comm)
				if !ready {
					break
				}
				nd.op.Start = start
				nd.critPred = critPred
				if nd.op.Kind == Fwd {
					nd.op.End = start + f[x]
				} else {
					nd.op.End = start + b[x]
				}
				done[x]++
				finalized++
				progressed = true
			}
		}
		if !progressed {
			return nil, fmt.Errorf("%w: sim: reference deadlock", errdefs.ErrDeadlock)
		}
	}

	r := &Result{F: append([]float64(nil), f...), B: append([]float64(nil), b...), Comm: comm, Micro: m}
	r.Ops = make([][]*Op, n)
	for x := range nodes {
		for _, nd := range nodes[x] {
			r.Ops[x] = append(r.Ops[x], nd.op)
		}
	}
	last := nodes[0][len(nodes[0])-1]
	r.IterTime = last.op.End
	r.Startup = nodes[n-1][0].op.Start

	var rev []*Op
	for nd := last; nd != nil; {
		rev = append(rev, nd.op)
		switch nd.critPred {
		case 0:
			nd = nodes[nd.op.Stage][nd.pos-1]
		case 1:
			if nd.op.Kind == Fwd {
				nd = fwdAt[nd.op.Stage-1][nd.op.Micro]
			} else {
				nd = bwdAt[nd.op.Stage+1][nd.op.Micro]
			}
		default:
			nd = nil
		}
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	r.Critical = rev
	r.Master = refMaster(r)
	return r, nil
}

// refSchedule lays out the 1F1B execution order op by op.
func refSchedule(n, m int) [][]*refNode {
	nodes := make([][]*refNode, n)
	for x := 0; x < n; x++ {
		warm := n - 1 - x
		if warm > m {
			warm = m
		}
		var list []*Op
		for µ := 0; µ < warm; µ++ {
			list = append(list, &Op{Stage: x, Micro: µ, Kind: Fwd, Phase: Warmup, Block: -1})
		}
		blocks := m - warm
		for y := 0; y < blocks; y++ {
			list = append(list, &Op{Stage: x, Micro: warm + y, Kind: Fwd, Phase: OneFOneB, Block: y})
			list = append(list, &Op{Stage: x, Micro: y, Kind: Bwd, Phase: OneFOneB, Block: y})
		}
		for µ := blocks; µ < m; µ++ {
			list = append(list, &Op{Stage: x, Micro: µ, Kind: Bwd, Phase: Cooldown, Block: m - 1 - µ})
		}
		for i, op := range list {
			nodes[x] = append(nodes[x], &refNode{op: op, pos: i})
		}
	}
	return nodes
}

// refStart computes the start time of nd if all its dependencies are
// finalized. done[x] counts finalized ops on stage x.
func refStart(nd *refNode, nodes [][]*refNode, fwdAt, bwdAt [][]*refNode, done []int, comm float64) (ready bool, start float64, critPred int) {
	n := len(nodes)
	op := nd.op
	var same, cross *refNode
	if nd.pos > 0 {
		same = nodes[op.Stage][nd.pos-1]
		if done[op.Stage] <= same.pos {
			return false, 0, 0
		}
	}
	if op.Kind == Fwd && op.Stage > 0 {
		cross = fwdAt[op.Stage-1][op.Micro]
	} else if op.Kind == Bwd && op.Stage < n-1 {
		cross = bwdAt[op.Stage+1][op.Micro]
	}
	if cross != nil && done[cross.op.Stage] <= cross.pos {
		return false, 0, 0
	}
	start, critPred = 0, -1
	if same != nil {
		start, critPred = same.op.End, 0
	}
	if cross != nil {
		if cross.op.End > start || (cross.op.End == start && op.Kind == Bwd) {
			start, critPred = cross.op.End, 1
		}
		start += comm
	}
	return true, start, critPred
}

// refMaster returns the stage with the most critical-path dwell in the 1F1B
// phase (all phases when it is empty), ties toward the last stage.
func refMaster(r *Result) int {
	dwell := make([]float64, len(r.Ops))
	any := false
	for _, op := range r.Critical {
		if op.Phase == OneFOneB {
			dwell[op.Stage] += op.End - op.Start
			any = true
		}
	}
	if !any {
		for _, op := range r.Critical {
			dwell[op.Stage] += op.End - op.Start
		}
	}
	best, bestT := 0, math.Inf(-1)
	for s, t := range dwell {
		if t >= bestT {
			best, bestT = s, t
		}
	}
	return best
}
