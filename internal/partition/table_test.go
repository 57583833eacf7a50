package partition

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"autopipe/internal/errdefs"
)

// refTable is the straightforward O(n²·p) form of Algorithm 1's program —
// every cell scans every split point k left to right and keeps the first
// strict improvement — kept as the oracle for Table's log-time fill.
func refTable(weights []float64, p int) (time [][]float64, from [][]int) {
	n := len(weights)
	prefix := make([]float64, n+1)
	for i, w := range weights {
		prefix[i+1] = prefix[i] + w
	}
	time = make([][]float64, n+1)
	from = make([][]int, n+1)
	for i := range time {
		time[i] = make([]float64, p+1)
		from[i] = make([]int, p+1)
		for j := range time[i] {
			time[i][j], from[i][j] = math.MaxFloat64, -1
		}
	}
	time[0][0] = 0
	for i := 1; i <= n; i++ {
		for j := 1; j <= p && j <= i; j++ {
			for k := j - 1; k < i; k++ {
				if time[k][j-1] == math.MaxFloat64 {
					continue
				}
				cand := math.Max(prefix[i]-prefix[k], time[k][j-1])
				if cand < time[i][j] {
					time[i][j], from[i][j] = cand, k
				}
			}
		}
	}
	return time, from
}

// refBalance is the per-call form of Algorithm 1 — a fresh program for
// exactly these weights and this depth, backtracked from its last cell.
func refBalance(weights []float64, p int) []int {
	_, from := refTable(weights, p)
	bounds := make([]int, p+1)
	bounds[p] = len(weights)
	for j, i := p, len(weights); j > 0; j-- {
		i = from[i][j]
		bounds[j-1] = i
	}
	return bounds
}

// TestTableMatchesPerCallBalance is the table's randomized oracle: on 400
// seeded weight arrays — small integers, so equal-cost splits abound and
// the smallest-k tie-break decides — every cell's backtrack must equal a
// fresh per-call program over that prefix and depth, and Balance and the
// per-call balancePrefix must agree with it too.
func TestTableMatchesPerCallBalance(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(40)
		weights := make([]float64, n)
		for i := range weights {
			if trial%3 == 0 {
				weights[i] = rng.Float64() * 10
			} else {
				weights[i] = float64(rng.Intn(5))
			}
		}
		maxP := 1 + rng.Intn(min(n, 16))
		tab, err := NewTable(weights, maxP)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		dst := make([]int, maxP+1)
		for end := 1; end <= n; end++ {
			for s := 1; s <= min(end, maxP); s++ {
				if err := tab.Bounds(dst, end, s); err != nil {
					t.Fatalf("trial %d: Bounds(%d, %d): %v", trial, end, s, err)
				}
				if want := refBalance(weights[:end], s); !reflect.DeepEqual(dst[:s+1], want) {
					t.Fatalf("trial %d %v: table (%d, %d) = %v, per-call %v", trial, weights, end, s, dst[:s+1], want)
				}
			}
		}
		part, err := Balance(weights, maxP)
		if err != nil {
			t.Fatalf("trial %d: Balance: %v", trial, err)
		}
		if want := refBalance(weights, maxP); !reflect.DeepEqual(part.Bounds, want) {
			t.Fatalf("trial %d: Balance = %v, per-call %v", trial, part.Bounds, want)
		}
		for s := 1; s <= maxP; s++ {
			got, err := balancePrefix(part, weights, s)
			if err != nil {
				t.Fatalf("trial %d: BalancePrefix(%d): %v", trial, s, err)
			}
			want := append(refBalance(weights[:part.Bounds[s]], s), part.Bounds[s+1:]...)
			if !reflect.DeepEqual(got.Bounds, want) {
				t.Fatalf("trial %d: BalancePrefix(%v, %d) = %v, per-call %v", trial, part.Bounds, s, got.Bounds, want)
			}
		}
	}
}

// TestTableMatchesQuadraticProgram compares every cell of NewTable — time
// bit for bit, and from — with refTable's full scan, on seeded weight
// families chosen to stress the float argument the log-time fill rests on
// (see NewTable): runs of zeros (long plateaus of prefix[i]-prefix[k], where
// the smallest-k rule decides), all-equal weights (exact ties between the
// two sides of the crossing), decimal tenths (sums equal only up to
// rounding), and magnitudes from 1e-15 to 1e15 in one array (differences
// that absorb the small weights entirely). The fill is exact only because
// rounded addition and subtraction are monotone in each argument:
// prefix[i]-prefix[k] is then nonincreasing in k even when it rounds, and
// time[k][j-1] is nondecreasing in k, so max of the two falls then rises
// in k and two binary searches find the smallest argmin.
func TestTableMatchesQuadraticProgram(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for trial := 0; trial < 600; trial++ {
		n := 1 + rng.Intn(80)
		weights := make([]float64, n)
		family := trial % 5
		equal := []float64{3, 0.7, 0.1}[rng.Intn(3)]
		for i := range weights {
			switch family {
			case 0:
				// Runs of zeros: a zero continues a run with probability
				// 3/4 and starts one with probability 1/3.
				inRun := i > 0 && weights[i-1] == 0
				if inRun && rng.Intn(4) != 0 || !inRun && rng.Intn(3) == 0 {
					weights[i] = 0
				} else {
					weights[i] = float64(1 + rng.Intn(3))
				}
			case 1:
				weights[i] = equal
			case 2:
				weights[i] = float64(1+rng.Intn(9)) / 10
			case 3:
				weights[i] = math.Pow(10, float64(rng.Intn(31)-15)) * (1 + rng.Float64())
			default:
				weights[i] = float64(rng.Intn(5))
			}
		}
		p := 1 + rng.Intn(min(n, 20))
		tab, err := NewTable(weights, p)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		wantTime, wantFrom := refTable(weights, p)
		for i := 0; i <= n; i++ {
			for j := 0; j <= p; j++ {
				c := i*(p+1) + j
				if math.Float64bits(tab.time[c]) != math.Float64bits(wantTime[i][j]) || int(tab.from[c]) != wantFrom[i][j] {
					t.Fatalf("trial %d (family %d, %v): cell (%d, %d) = (%v, %d), quadratic program (%v, %d)",
						trial, family, weights, i, j, tab.time[c], tab.from[c], wantTime[i][j], wantFrom[i][j])
				}
			}
		}
	}
}

// TestTableBoundsAllocationFree pins the planner's prefix re-balance at
// zero allocations: a backtrack into a caller-owned buffer.
func TestTableBoundsAllocationFree(t *testing.T) {
	weights := make([]float64, 50)
	for i := range weights {
		weights[i] = float64(1 + i%7)
	}
	tab, err := NewTable(weights, 16)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]int, 17)
	if n := testing.AllocsPerRun(100, func() {
		if err := tab.Bounds(dst, 37, 12); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Table.Bounds: %v allocs/op, want 0", n)
	}
}

// TestBalanceRejectsNonFinite: a NaN weight passes a plain negative check
// (NaN < 0 is false) and an infinite one poisons every cell; both are
// configuration errors, as are finite weights whose total overflows and the
// shape errors.
func TestBalanceRejectsNonFinite(t *testing.T) {
	for _, tc := range []struct {
		name    string
		weights []float64
		p       int
	}{
		{"NaN", []float64{1, math.NaN(), 3}, 2},
		{"+Inf", []float64{1, 2, math.Inf(1)}, 2},
		{"-Inf", []float64{math.Inf(-1), 2, 3}, 2},
		{"negative", []float64{1, -2, 3}, 2},
		{"overflowing total", []float64{math.MaxFloat64, math.MaxFloat64, 1}, 2},
		{"zero depth", []float64{1, 2}, 0},
		{"too deep", []float64{1, 2}, 3},
	} {
		if _, err := Balance(tc.weights, tc.p); !errors.Is(err, errdefs.ErrBadConfig) {
			t.Errorf("%s: Balance err = %v, want ErrBadConfig", tc.name, err)
		}
		if _, err := NewTable(tc.weights, tc.p); !errors.Is(err, errdefs.ErrBadConfig) {
			t.Errorf("%s: NewTable err = %v, want ErrBadConfig", tc.name, err)
		}
	}
	part, err := New([]int{0, 1, 3}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := balancePrefix(part, []float64{1, math.NaN(), 3}, 2); !errors.Is(err, errdefs.ErrBadConfig) {
		t.Errorf("BalancePrefix over a NaN weight: err = %v, want ErrBadConfig", err)
	}
}

// TestTableBalancePrefixDeep covers prefixes too deep for BalancePrefix's
// stack buffer.
func TestTableBalancePrefixDeep(t *testing.T) {
	weights := make([]float64, 80)
	for i := range weights {
		weights[i] = float64(1 + i%3)
	}
	part, err := even(80, 40)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := NewTable(weights, 40)
	if err != nil {
		t.Fatal(err)
	}
	got, err := tab.BalancePrefix(part, 40)
	if err != nil {
		t.Fatal(err)
	}
	if want := refBalance(weights, 40); !reflect.DeepEqual(got.Bounds, want) {
		t.Errorf("BalancePrefix over 40 stages = %v, per-call %v", got.Bounds, want)
	}
}
