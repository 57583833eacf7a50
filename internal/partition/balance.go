package partition

import (
	"fmt"
	"math"
	"slices"

	"autopipe/internal/errdefs"
)

// Balance implements Algorithm 1 of the paper: given per-block weights
// (f_i + b_i) and a pipeline depth p, it returns the contiguous partition
// that minimizes the maximum per-stage weight, via the classic min-max
// linear-partition dynamic program (see Table).
//
// The paper seeds its heuristic search with this "relatively balanced"
// scheme; it is only relatively balanced because block weights are lumpy
// (embedding and head blocks differ from transformer sub-blocks).
func Balance(weights []float64, p int) (Partition, error) {
	t, err := NewTable(weights, p)
	if err != nil {
		return Partition{}, err
	}
	return t.Partition(len(weights), p)
}

// Table is Algorithm 1's dynamic program over one weight array, filled once
// for every depth up to a maximum:
//
//	time[i][j] = min over k<i of max(time[k][j-1], prefix[i]-prefix[k])
//
// is the best max-stage weight of the first i blocks in j stages, and
// from[i][j] the k that attains it (the smallest such k). time[i][j]
// depends only on weights[:i] and on column j-1, so the one table holds the
// exact answer of Balance(weights[:i], j) for every i and every j up to the
// maximum — the full-array seed of every depth and every prefix
// BalancePrefix re-balances are backtracks from a different cell, O(depth)
// each instead of a fresh program.
type Table struct {
	n, p int
	// time and from are (n+1)×(p+1), row-major: cell (i, j) at i*(p+1)+j.
	time []float64
	from []int32
}

// unreached marks table cells with no feasible partition.
const unreached = math.MaxFloat64

// NewTable fills Algorithm 1's table for the weights and every depth up to
// maxStages, in O(n·p·log n). Errors wrap errdefs.ErrBadConfig: a depth
// outside [1, len(weights)], a weight that is negative, NaN, or infinite, or
// weights whose total overflows.
//
// Within one cell (i, j ≥ 2) the candidates k range over [j-1, i-1], all
// reachable. There T(k) = time[k][j-1] is nondecreasing in k: dropping the
// last block of a partition of k+1 blocks (and splitting a stage if that
// empties the last one) never raises a stage weight. D(k) = prefix[i] -
// prefix[k] is nonincreasing: prefix is a running sum of non-negative
// weights, and rounded addition and subtraction are monotone in each
// argument. So max(T(k), D(k)) is D up to the first k where T(k) >= D(k)
// and T from there on: it falls, then rises. Two binary searches find the
// smallest k attaining the minimum — the crossing point c, then, when the
// value just left of it is smaller than T(c) or ties it, the left edge of
// D's plateau at that value — which is the k a left-to-right scan that
// keeps the first strict improvement picks.
func NewTable(weights []float64, maxStages int) (*Table, error) {
	n, p := len(weights), maxStages
	if p <= 0 {
		return nil, fmt.Errorf("%w: partition: pipeline depth must be positive, got %d", errdefs.ErrBadConfig, p)
	}
	if n < p {
		return nil, fmt.Errorf("%w: partition: cannot split %d blocks into %d stages", errdefs.ErrBadConfig, n, p)
	}
	prefix := make([]float64, n+1)
	for i, w := range weights {
		if !(w >= 0) || math.IsInf(w, 1) {
			return nil, fmt.Errorf("%w: partition: block weight %g at index %d must be finite and non-negative", errdefs.ErrBadConfig, w, i)
		}
		prefix[i+1] = prefix[i] + w
	}
	if !(prefix[n] < unreached) {
		return nil, fmt.Errorf("%w: partition: total block weight overflows", errdefs.ErrBadConfig)
	}

	w := p + 1
	t := &Table{n: n, p: p, time: make([]float64, (n+1)*w), from: make([]int32, (n+1)*w)}
	for c := range t.time {
		t.time[c], t.from[c] = unreached, -1
	}
	t.time[0] = 0
	for i := 1; i <= n; i++ {
		// One stage holds every block: k = 0.
		t.time[i*w+1], t.from[i*w+1] = prefix[i], 0
	}
	for j := 2; j <= p; j++ {
		for i := j; i <= n; i++ {
			// k is the end of the previous stage; stage j holds (k, i].
			// c: the smallest k in [j-1, i] with T(k) >= D(k), i when none.
			lo, c := j-1, i
			for a := lo; a < c; {
				k := (a + c) / 2
				if t.time[k*w+j-1] >= prefix[i]-prefix[k] {
					c = k
				} else {
					a = k + 1
				}
			}
			best, arg := unreached, -1
			if c < i {
				best, arg = t.time[c*w+j-1], c
			}
			if c > lo {
				// The left edge of D's plateau at D(c-1).
				if v := prefix[i] - prefix[c-1]; v <= best {
					a, e := lo, c-1
					for a < e {
						k := (a + e) / 2
						if prefix[i]-prefix[k] <= v {
							e = k
						} else {
							a = k + 1
						}
					}
					best, arg = v, e
				}
			}
			t.time[i*w+j], t.from[i*w+j] = best, int32(arg)
		}
	}
	return t, nil
}

// Bounds writes into dst[:stages+1] the optimal bounds of blocks [0, end)
// in `stages` stages — exactly Balance(weights[:end], stages).Bounds — by
// backtracking from cell (end, stages). dst must have room for stages+1
// entries.
func (t *Table) Bounds(dst []int, end, stages int) error {
	if stages < 1 || stages > t.p || end < stages || end > t.n || len(dst) < stages+1 {
		return fmt.Errorf("%w: partition: no %d-stage bounds for %d of %d blocks (table depth %d, room for %d)",
			errdefs.ErrBadConfig, stages, end, t.n, t.p, len(dst))
	}
	w := t.p + 1
	if t.time[end*w+stages] == unreached {
		return fmt.Errorf("%w: partition: no feasible %d-stage partition of %d blocks", errdefs.ErrBadConfig, stages, end)
	}
	dst[stages] = end
	for j, i := stages, end; j > 0; j-- {
		i = int(t.from[i*w+j])
		dst[j-1] = i
	}
	return nil
}

// Partition returns the balanced partition of blocks [0, end) in `stages`
// stages: Balance(weights[:end], stages).
func (t *Table) Partition(end, stages int) (Partition, error) {
	bounds := make([]int, stages+1)
	if err := t.Bounds(bounds, end, stages); err != nil {
		return Partition{}, err
	}
	return New(bounds, end)
}

// BalancePrefix returns part with its first `stages` stages re-balanced over
// the blocks they hold, leaving later bounds intact: part itself when that
// prefix is already balanced, and a re-balanced copy otherwise. The
// heuristic planner does this when it shifts the master stage (paper §III-B
// step 3: "applies Algorithm 1 to the first i−1 stages").
func (t *Table) BalancePrefix(part Partition, stages int) (Partition, error) {
	if stages <= 0 || stages > part.Stages() {
		return Partition{}, fmt.Errorf("%w: partition: prefix stages %d out of range [1,%d]", errdefs.ErrBadConfig, stages, part.Stages())
	}
	// Backtrack on the stack when the prefix fits, so an already balanced
	// prefix costs no allocation.
	var buf [32]int
	var bounds []int
	if stages < len(buf) {
		bounds = buf[:stages+1]
	} else {
		bounds = make([]int, stages+1)
	}
	if err := t.Bounds(bounds, part.Bounds[stages], stages); err != nil {
		return Partition{}, err
	}
	if slices.Equal(bounds, part.Bounds[:stages+1]) {
		return part, nil
	}
	out := part.Clone()
	copy(out.Bounds, bounds)
	return out, nil
}
