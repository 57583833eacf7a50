package tensor

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func TestNewAndSize(t *testing.T) {
	x := New(2, 3, 4)
	if x.Size() != 24 || len(x.Data) != 24 {
		t.Errorf("size = %d", x.Size())
	}
	if !slices.Equal(x.Shape, []int{2, 3, 4}) {
		t.Errorf("shape = %v", x.Shape)
	}
	defer func() {
		if recover() == nil {
			t.Error("New accepted a non-positive dimension")
		}
	}()
	New(2, 0)
}

func TestFromSliceValidates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("FromSlice accepted a mismatched shape")
		}
	}()
	FromSlice([]float64{1, 2, 3}, 2, 2)
}

func TestMatMulKnownValues(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float64{7, 8, 9, 10, 11, 12}, 3, 2)
	c := MatMul(a, b)
	want := []float64{58, 64, 139, 154}
	for i, v := range want {
		if c.Data[i] != v {
			t.Errorf("MatMul[%d] = %v, want %v", i, c.Data[i], v)
		}
	}
}

func TestMatMulTransposesAgree(t *testing.T) {
	// Property: MatMulT1(a,b) == MatMul(aᵀ,b) and MatMulT2(a,b) == MatMul(a,bᵀ).
	prop := func(seed uint8) bool {
		rng := NewRNG(uint64(seed) + 1)
		a := Randn(rng, 1, 3, 4)
		b := Randn(rng, 1, 3, 5)
		at := New(4, 3)
		for i := 0; i < 3; i++ {
			for j := 0; j < 4; j++ {
				at.Data[j*3+i] = a.Data[i*4+j]
			}
		}
		x := MatMulT1(a, b) // aᵀ@b: [4,5]
		y := MatMul(at, b)
		if MaxAbsDiff(x, y) > 1e-12 {
			return false
		}
		c := Randn(rng, 1, 6, 4)
		bt2 := New(4, 6)
		for i := 0; i < 6; i++ {
			for j := 0; j < 4; j++ {
				bt2.Data[j*6+i] = c.Data[i*4+j]
			}
		}
		u := MatMulT2(a.Reshape(3, 4), c) // a@cᵀ: [3,6]
		v := MatMul(a.Reshape(3, 4), bt2)
		return MaxAbsDiff(u, v) <= 1e-12
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestMatMulShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MatMul accepted mismatched shapes")
		}
	}()
	MatMul(New(2, 3), New(4, 2))
}

func TestAddScaleClone(t *testing.T) {
	x := FromSlice([]float64{1, 2}, 2)
	y := FromSlice([]float64{10, 20}, 2)
	z := x.Add(y)
	if z.Data[0] != 11 || z.Data[1] != 22 {
		t.Errorf("Add = %v", z.Data)
	}
	if x.Data[0] != 1 {
		t.Error("Add mutated its receiver")
	}
	x.AddInPlace(y)
	if x.Data[0] != 11 {
		t.Error("AddInPlace did not mutate")
	}
	c := y.Clone()
	c.Data[0] = 99
	if y.Data[0] != 10 {
		t.Error("Clone shares storage")
	}
	c.Zero()
	if c.Data[1] != 0 {
		t.Error("Zero did not clear")
	}
}

func TestSplitConcatRoundTrip(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3, 4, 5, 6, 7, 8}, 4, 2)
	a, b := x.SplitRows(1)
	if a.Shape[0] != 1 || b.Shape[0] != 3 {
		t.Fatalf("split shapes %v / %v", a.Shape, b.Shape)
	}
	back := ConcatRows(a, b)
	if MaxAbsDiff(back, x) != 0 {
		t.Error("split+concat is not the identity")
	}
	defer func() {
		if recover() == nil {
			t.Error("SplitRows accepted an out-of-range count")
		}
	}()
	x.SplitRows(4)
}

func TestReshapeIsView(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	y := x.Reshape(4)
	y.Data[0] = 42
	if x.Data[0] != 42 {
		t.Error("Reshape copied instead of aliasing")
	}
	defer func() {
		if recover() == nil {
			t.Error("Reshape accepted a size change")
		}
	}()
	x.Reshape(3)
}

func TestRNGDeterministicAndReasonable(t *testing.T) {
	a, b := NewRNG(5), NewRNG(5)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	// Norm samples have roughly zero mean and unit variance.
	rng := NewRNG(123)
	var sum, sq float64
	const n = 20000
	for i := 0; i < n; i++ {
		v := rng.Norm()
		sum += v
		sq += v * v
	}
	mean := sum / n
	variance := sq/n - mean*mean
	if math.Abs(mean) > 0.05 || math.Abs(variance-1) > 0.1 {
		t.Errorf("Norm stats: mean %.3f variance %.3f", mean, variance)
	}
	// Intn stays in range.
	for i := 0; i < 1000; i++ {
		if v := rng.Intn(7); v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
	}
	// Seed 0 is remapped, not degenerate.
	z := NewRNG(0)
	if z.Uint64() == 0 && z.Uint64() == 0 {
		t.Error("zero seed produced zeros")
	}
}

func TestRowsFlattening(t *testing.T) {
	x := New(2, 3, 5)
	r, c := x.Rows()
	if r != 6 || c != 5 {
		t.Errorf("Rows = %d x %d, want 6 x 5", r, c)
	}
}
