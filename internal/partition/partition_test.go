package partition

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"autopipe/internal/config"
	"autopipe/internal/cost"
	"autopipe/internal/errdefs"
	"autopipe/internal/model"
)

func buildBlocks(t *testing.T) *model.Blocks {
	t.Helper()
	cl := config.DefaultCluster()
	bl, err := model.Build(config.GPT2_345M(), cost.Geometry{MicroBatch: 4, Checkpoint: true},
		cl.Device, cl.Network, model.SubLayer)
	if err != nil {
		t.Fatal(err)
	}
	return bl
}

func TestNewValidation(t *testing.T) {
	for _, tc := range []struct {
		bounds []int
		n      int
		ok     bool
	}{
		{[]int{0, 5, 10}, 10, true},
		{[]int{0, 10}, 10, true},
		{[]int{0}, 10, false},
		{[]int{1, 10}, 10, false},
		{[]int{0, 9}, 10, false},
		{[]int{0, 5, 5, 10}, 10, false},
		{[]int{0, 7, 3, 10}, 10, false},
	} {
		_, err := New(tc.bounds, tc.n)
		if (err == nil) != tc.ok {
			t.Errorf("New(%v, %d): err=%v, want ok=%v", tc.bounds, tc.n, err, tc.ok)
		}
	}
}

func TestBalanceMinimizesMaxStage(t *testing.T) {
	weights := []float64{5, 1, 1, 1, 1, 1, 5}
	part, err := Balance(weights, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Optimal max-stage weight is 5 (the heavy blocks isolated enough).
	maxStage := 0.0
	for s := 0; s < part.Stages(); s++ {
		lo, hi := part.Stage(s)
		var w float64
		for _, x := range weights[lo:hi] {
			w += x
		}
		if w > maxStage {
			maxStage = w
		}
	}
	if maxStage > 5+1e-9 {
		t.Errorf("Balance gave max stage %v, optimal is 5 (bounds %v)", maxStage, part.Bounds)
	}
}

func TestBalanceAgainstBruteForce(t *testing.T) {
	// Property: the DP's max-stage weight equals the brute-force optimum
	// over all contiguous partitions.
	prop := func(seed uint8, pRaw uint8) bool {
		rng := uint64(seed) + 1
		next := func() float64 {
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			return float64(rng%97) + 1
		}
		n := 5 + int(seed%6)
		weights := make([]float64, n)
		for i := range weights {
			weights[i] = next()
		}
		p := 2 + int(pRaw)%3
		if p > n {
			p = n
		}
		part, err := Balance(weights, p)
		if err != nil {
			return false
		}
		got := maxStageWeight(weights, part.Bounds)
		best := math.Inf(1)
		var enumerate func(bounds []int, pos int)
		enumerate = func(bounds []int, pos int) {
			if len(bounds) == p-1 {
				full := append(append([]int{0}, bounds...), n)
				if w := maxStageWeight(weights, full); w < best {
					best = w
				}
				return
			}
			for nxt := pos + 1; nxt <= n-(p-2-len(bounds))-1; nxt++ {
				enumerate(append(bounds, nxt), nxt)
			}
		}
		enumerate([]int{}, 0)
		return math.Abs(got-best) < 1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func maxStageWeight(weights []float64, bounds []int) float64 {
	var mx float64
	for i := 1; i < len(bounds); i++ {
		var w float64
		for _, x := range weights[bounds[i-1]:bounds[i]] {
			w += x
		}
		if w > mx {
			mx = w
		}
	}
	return mx
}

func TestBalanceErrors(t *testing.T) {
	if _, err := Balance([]float64{1, 2}, 0); err == nil {
		t.Error("want error for zero stages")
	}
	if _, err := Balance([]float64{1, 2}, 3); err == nil {
		t.Error("want error for more stages than blocks")
	}
	if _, err := Balance([]float64{1, -2, 3}, 2); err == nil {
		t.Error("want error for negative weight")
	}
}

// balancePrefix re-balances the first `stages` stages of part with a fresh
// Algorithm 1 table over just that block prefix: the per-call form of
// Table.BalancePrefix, which the planner calls on one table for every depth.
func balancePrefix(part Partition, weights []float64, stages int) (Partition, error) {
	if stages <= 0 || stages > part.Stages() {
		return Partition{}, fmt.Errorf("%w: partition: prefix stages %d out of range [1,%d]", errdefs.ErrBadConfig, stages, part.Stages())
	}
	t, err := NewTable(weights[:part.Bounds[stages]], stages)
	if err != nil {
		return Partition{}, err
	}
	return t.BalancePrefix(part, stages)
}

// even returns the Megatron-LM style partition: n blocks split into p runs
// of equal block count, or an error when p does not divide n.
func even(n, p int) (Partition, error) {
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

func TestBalancePrefix(t *testing.T) {
	weights := []float64{4, 4, 4, 4, 4, 4, 4, 4}
	part, err := New([]int{0, 1, 4, 6, 8}, 8)
	if err != nil {
		t.Fatal(err)
	}
	reb, err := balancePrefix(part, weights, 2)
	if err != nil {
		t.Fatal(err)
	}
	// First two stages cover blocks [0,4) and rebalance to 2+2.
	if reb.Bounds[1] != 2 {
		t.Errorf("BalancePrefix bounds = %v, want split at 2", reb.Bounds)
	}
	// Later bounds untouched.
	if reb.Bounds[2] != 4 || reb.Bounds[3] != 6 || reb.Bounds[4] != 8 {
		t.Errorf("BalancePrefix disturbed suffix: %v", reb.Bounds)
	}
	if _, err := balancePrefix(part, weights, 0); err == nil {
		t.Error("want error for zero prefix stages")
	}
}

func TestEven(t *testing.T) {
	part, err := even(12, 4)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 4; s++ {
		if part.Size(s) != 3 {
			t.Errorf("stage %d has %d blocks, want 3", s, part.Size(s))
		}
	}
	if _, err := even(10, 4); err == nil {
		t.Error("want error for indivisible block count")
	}
}

func TestStageTimesAndParams(t *testing.T) {
	bl := buildBlocks(t)
	part, err := Balance(bl.Weights(), 4)
	if err != nil {
		t.Fatal(err)
	}
	f, b := part.StageTimes(bl)
	var totalF, totalB float64
	for i := range f {
		totalF += f[i]
		totalB += b[i]
		if f[i] <= 0 || b[i] <= 0 {
			t.Errorf("stage %d has non-positive times f=%v b=%v", i, f[i], b[i])
		}
	}
	var modelF float64
	for _, blk := range bl.List {
		modelF += blk.Fwd
	}
	if math.Abs(totalF-modelF) > 1e-12*totalF {
		t.Errorf("stage forwards sum to %v, model total %v", totalF, modelF)
	}
	var params int64
	for _, p := range part.StageParams(bl) {
		params += p
	}
	if params != bl.TotalParams() {
		t.Errorf("stage params sum to %d, model total %d", params, bl.TotalParams())
	}
}

func TestLayerCountsSumToModelLayers(t *testing.T) {
	bl := buildBlocks(t)
	part, err := Balance(bl.Weights(), 4)
	if err != nil {
		t.Fatal(err)
	}
	var layers float64
	for _, l := range part.LayerCounts(bl) {
		layers += l
	}
	if layers != float64(bl.Model.Layers) {
		t.Errorf("layer counts sum to %v, want %d", layers, bl.Model.Layers)
	}
}

func TestImbalanceOfBalancedIsLow(t *testing.T) {
	bl := buildBlocks(t)
	balanced, _ := Balance(bl.Weights(), 4)
	skewed, _ := New([]int{0, 5, 10, 15, 50}, bl.Len())
	if balanced.Imbalance(bl) >= skewed.Imbalance(bl) {
		t.Errorf("balanced imbalance %v not below skewed %v", balanced.Imbalance(bl), skewed.Imbalance(bl))
	}
}

func TestStdDev(t *testing.T) {
	if s := StdDev(nil); s != 0 {
		t.Errorf("StdDev(nil) = %v", s)
	}
	if s := StdDev([]float64{3, 3, 3}); s != 0 {
		t.Errorf("StdDev(const) = %v", s)
	}
	if s := StdDev([]float64{1, 3}); math.Abs(s-1) > 1e-12 {
		t.Errorf("StdDev({1,3}) = %v, want 1", s)
	}
}

func TestCloneEqualKey(t *testing.T) {
	p, _ := New([]int{0, 3, 7}, 7)
	q := p.Clone()
	if !p.Equal(q) || string(p.AppendKey(nil)) != string(q.AppendKey(nil)) {
		t.Error("clone not equal to original")
	}
	q.Bounds[1] = 4
	if p.Equal(q) {
		t.Error("mutated clone still equal")
	}
	if p.Bounds[1] != 3 {
		t.Error("clone shares backing array with original")
	}
}

// TestKeyFormat pins AppendKey's encoding — each bound in decimal followed
// by a comma — including keys longer than the caller's stack buffer.
func TestKeyFormat(t *testing.T) {
	var buf [64]byte
	p, _ := New([]int{0, 3, 17, 120}, 120)
	if got := string(p.AppendKey(buf[:0])); got != "0,3,17,120," {
		t.Errorf("key = %q, want %q", got, "0,3,17,120,")
	}
	bounds := make([]int, 41)
	want := ""
	for i := range bounds {
		bounds[i] = 1000 * i
		want += fmt.Sprintf("%d,", bounds[i])
	}
	if got := string((Partition{Bounds: bounds}).AppendKey(buf[:0])); got != want {
		t.Errorf("long key = %q, want %q", got, want)
	}
}
