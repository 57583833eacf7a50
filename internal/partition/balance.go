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

// BalancePrefix re-balances only the first `stages` stages of part over the
// block prefix ending at part.Bounds[stages], leaving later bounds intact,
// and returns part itself when that prefix is already balanced. The
// heuristic planner does this when it shifts the master stage (paper §III-B
// step 3: "applies Algorithm 1 to the first i−1 stages"); a search that
// re-balances many prefixes of one weight array builds one Table and calls
// its BalancePrefix instead.
func BalancePrefix(part Partition, weights []float64, stages int) (Partition, error) {
	if stages <= 0 || stages > part.Stages() {
		return Partition{}, fmt.Errorf("%w: partition: prefix stages %d out of range [1,%d]", errdefs.ErrBadConfig, stages, part.Stages())
	}
	t, err := NewTable(weights[:part.Bounds[stages]], stages)
	if err != nil {
		return Partition{}, err
	}
	return t.BalancePrefix(part, stages)
}

// Table is Algorithm 1's dynamic program over one weight array, filled once
// for every depth up to a maximum:
//
//	time[i][j] = min over k<i of max(time[k][j-1], prefix[i]-prefix[k])
//
// is the best max-stage weight of the first i blocks in j stages, and
// from[i][j] the k that attains it (the smallest such k: the scan keeps the
// first strict improvement). time[i][j] depends only on weights[:i] and on
// column j-1, so the one table holds the exact answer of Balance(weights[:i],
// j) for every i and every j up to the maximum — the full-array seed of
// every depth and every prefix BalancePrefix re-balances are backtracks from
// a different cell, O(depth) each instead of a fresh O(n²·depth) program.
type Table struct {
	n, p int
	// time and from are (n+1)×(p+1), row-major: cell (i, j) at i*(p+1)+j.
	time []float64
	from []int32
}

// unreached marks table cells with no feasible partition.
const unreached = math.MaxFloat64

// NewTable fills Algorithm 1's table for the weights and every depth up to
// maxStages. Errors wrap errdefs.ErrBadConfig: a depth outside [1, len(weights)],
// or a weight that is negative, NaN, or infinite.
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

	w := p + 1
	t := &Table{n: n, p: p, time: make([]float64, (n+1)*w), from: make([]int32, (n+1)*w)}
	for c := range t.time {
		t.time[c], t.from[c] = unreached, -1
	}
	t.time[0] = 0
	for i := 1; i <= n; i++ {
		for j := 1; j <= min(p, i); j++ {
			// k is the end of the previous stage; stage j holds (k, i].
			best, arg := t.time[i*w+j], t.from[i*w+j]
			for k := j - 1; k < i; k++ {
				prev := t.time[k*w+j-1]
				if prev == unreached {
					continue
				}
				cand := prefix[i] - prefix[k]
				if prev > cand {
					cand = prev
				}
				if cand < best {
					best, arg = cand, int32(k)
				}
			}
			t.time[i*w+j], t.from[i*w+j] = best, arg
		}
	}
	return t, nil
}

// Bounds writes into dst[:stages+1] the optimal bounds of blocks [0, end)
// in `stages` stages — exactly Balance(weights[:end], stages).Bounds — by
// backtracking from cell (end, stages). dst must have room for stages+1
// entries.
//
//hot:every master move the planner generates re-balances a prefix
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

// BalancePrefix is the table form of the package-level BalancePrefix: part
// with its first `stages` stages re-balanced over the blocks they hold. Like
// it, it returns part itself when that prefix is already balanced, and a
// re-balanced copy otherwise.
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

// Even returns the Megatron-LM style partition: blocks split into p runs of
// equal block count (callers arrange the block array so this equals "divide
// transformer layers evenly"). It returns an error when p does not divide
// the divisible region evenly, mirroring Megatron's constraint that pipeline
// depth must be a factor of the layer count.
func Even(n, p int) (Partition, error) {
	if p <= 0 || n < p {
		return Partition{}, fmt.Errorf("partition: cannot evenly split %d blocks into %d stages", n, p)
	}
	if n%p != 0 {
		return Partition{}, fmt.Errorf("partition: %d blocks not divisible by %d stages", n, p)
	}
	bounds := make([]int, p+1)
	for i := 0; i <= p; i++ {
		bounds[i] = i * n / p
	}
	return New(bounds, n)
}
