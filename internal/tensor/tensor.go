// Package tensor provides the dense float64 tensors under the miniature
// training framework (packages nn and train) that stands in for the paper's
// PyTorch/Megatron-LM backend. It is written for numerical transparency, not
// speed: the semantic claims it supports — pipeline-parallel training is
// bit-compatible with serial training, micro-batch slicing does not change
// gradients — need exact, auditable arithmetic.
package tensor

import (
	"fmt"
	"math"
)

// Tensor is a dense row-major float64 tensor.
type Tensor struct {
	Shape []int
	Data  []float64
}

// New returns a zero tensor of the given shape.
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panic(fmt.Sprintf("tensor: non-positive dimension %d in %v", d, shape))
		}
		n *= d
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: make([]float64, n)}
}

// FromSlice wraps data in a tensor of the given shape (no copy).
func FromSlice(data []float64, shape ...int) *Tensor {
	t := &Tensor{Shape: append([]int(nil), shape...), Data: data}
	if len(data) != t.Size() {
		panic(fmt.Sprintf("tensor: %d elements cannot fill shape %v", len(data), shape))
	}
	return t
}

// Size returns the element count.
func (t *Tensor) Size() int {
	n := 1
	for _, d := range t.Shape {
		n *= d
	}
	return n
}

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	out := New(t.Shape...)
	copy(out.Data, t.Data)
	return out
}

// Rows reinterprets the tensor as a [rows, cols] matrix where cols is the
// last dimension.
func (t *Tensor) Rows() (rows, cols int) {
	cols = t.Shape[len(t.Shape)-1]
	return t.Size() / cols, cols
}

// SameShape reports whether two tensors have identical shapes.
func (t *Tensor) SameShape(o *Tensor) bool {
	if len(t.Shape) != len(o.Shape) {
		return false
	}
	for i := range t.Shape {
		if t.Shape[i] != o.Shape[i] {
			return false
		}
	}
	return true
}

// Reshape returns a view with a new shape of equal size.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	out := &Tensor{Shape: append([]int(nil), shape...), Data: t.Data}
	if out.Size() != t.Size() {
		panic(fmt.Sprintf("tensor: cannot reshape %v to %v", t.Shape, shape))
	}
	return out
}

// Add returns t + o elementwise.
func (t *Tensor) Add(o *Tensor) *Tensor {
	mustSameShape("Add", t, o)
	out := t.Clone()
	for i, v := range o.Data {
		out.Data[i] += v
	}
	return out
}

// AddInPlace accumulates o into t.
func (t *Tensor) AddInPlace(o *Tensor) {
	mustSameShape("AddInPlace", t, o)
	for i, v := range o.Data {
		t.Data[i] += v
	}
}

// ScaleInPlace multiplies t by s.
func (t *Tensor) ScaleInPlace(s float64) {
	for i := range t.Data {
		t.Data[i] *= s
	}
}

// Zero clears the tensor.
func (t *Tensor) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

// MatMul returns a @ b for 2-D matrices [m,k] x [k,n].
func MatMul(a, b *Tensor) *Tensor {
	if len(a.Shape) != 2 || len(b.Shape) != 2 || a.Shape[1] != b.Shape[0] {
		panic(fmt.Sprintf("tensor: MatMul shapes %v x %v", a.Shape, b.Shape))
	}
	m, k := a.Shape[0], a.Shape[1]
	n := b.Shape[1]
	out := New(m, n)
	for i := 0; i < m; i++ {
		arow := a.Data[i*k : (i+1)*k]
		orow := out.Data[i*n : (i+1)*n]
		for p := 0; p < k; p++ {
			av := arow[p]
			if av == 0 {
				continue
			}
			brow := b.Data[p*n : (p+1)*n]
			for j := 0; j < n; j++ {
				orow[j] += av * brow[j]
			}
		}
	}
	return out
}

// MatMulT1 returns aᵀ @ b for a [k,m], b [k,n] -> [m,n].
func MatMulT1(a, b *Tensor) *Tensor {
	if len(a.Shape) != 2 || len(b.Shape) != 2 || a.Shape[0] != b.Shape[0] {
		panic(fmt.Sprintf("tensor: MatMulT1 shapes %v x %v", a.Shape, b.Shape))
	}
	k, m := a.Shape[0], a.Shape[1]
	n := b.Shape[1]
	out := New(m, n)
	for p := 0; p < k; p++ {
		arow := a.Data[p*m : (p+1)*m]
		brow := b.Data[p*n : (p+1)*n]
		for i := 0; i < m; i++ {
			av := arow[i]
			if av == 0 {
				continue
			}
			orow := out.Data[i*n : (i+1)*n]
			for j := 0; j < n; j++ {
				orow[j] += av * brow[j]
			}
		}
	}
	return out
}

// MatMulT2 returns a @ bᵀ for a [m,k], b [n,k] -> [m,n].
func MatMulT2(a, b *Tensor) *Tensor {
	if len(a.Shape) != 2 || len(b.Shape) != 2 || a.Shape[1] != b.Shape[1] {
		panic(fmt.Sprintf("tensor: MatMulT2 shapes %v x %v", a.Shape, b.Shape))
	}
	m, k := a.Shape[0], a.Shape[1]
	n := b.Shape[0]
	out := New(m, n)
	for i := 0; i < m; i++ {
		arow := a.Data[i*k : (i+1)*k]
		orow := out.Data[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			brow := b.Data[j*k : (j+1)*k]
			var s float64
			for p := 0; p < k; p++ {
				s += arow[p] * brow[p]
			}
			orow[j] = s
		}
	}
	return out
}

// SplitRows returns the first n rows and the remainder of a tensor whose
// leading axis is the batch dimension.
func (t *Tensor) SplitRows(n int) (head, tail *Tensor) {
	b := t.Shape[0]
	if n <= 0 || n >= b {
		panic(fmt.Sprintf("tensor: SplitRows(%d) of batch %d", n, b))
	}
	rowSize := t.Size() / b
	headShape := append([]int{n}, t.Shape[1:]...)
	tailShape := append([]int{b - n}, t.Shape[1:]...)
	return FromSlice(t.Data[:n*rowSize], headShape...),
		FromSlice(t.Data[n*rowSize:], tailShape...)
}

// ConcatRows concatenates tensors along the leading (batch) axis.
func ConcatRows(parts ...*Tensor) *Tensor {
	if len(parts) == 0 {
		panic("tensor: ConcatRows of nothing")
	}
	total := 0
	for _, p := range parts {
		total += p.Shape[0]
	}
	shape := append([]int{total}, parts[0].Shape[1:]...)
	out := New(shape...)
	off := 0
	for _, p := range parts {
		copy(out.Data[off:], p.Data)
		off += p.Size()
	}
	return out
}

// MaxAbsDiff returns the largest absolute elementwise difference.
func MaxAbsDiff(a, b *Tensor) float64 {
	mustSameShape("MaxAbsDiff", a, b)
	var mx float64
	for i := range a.Data {
		if d := math.Abs(a.Data[i] - b.Data[i]); d > mx {
			mx = d
		}
	}
	return mx
}

func mustSameShape(op string, a, b *Tensor) {
	if !a.SameShape(b) {
		panic(fmt.Sprintf("tensor: %s shape mismatch %v vs %v", op, a.Shape, b.Shape))
	}
}

// RNG is a small deterministic generator (xorshift*) for reproducible
// initialization and synthetic data, independent of math/rand changes.
type RNG struct{ state uint64 }

// NewRNG seeds a generator (seed 0 is remapped).
func NewRNG(seed uint64) *RNG {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &RNG{state: seed}
}

// Uint64 returns the next raw value.
func (r *RNG) Uint64() uint64 {
	r.state ^= r.state >> 12
	r.state ^= r.state << 25
	r.state ^= r.state >> 27
	return r.state * 0x2545F4914F6CDD1D
}

// Float64 returns a uniform value in [0,1).
func (r *RNG) Float64() float64 { return float64(r.Uint64()>>11) / float64(1<<53) }

// Norm returns a standard normal value (Box-Muller).
func (r *RNG) Norm() float64 {
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// Intn returns a uniform integer in [0,n).
func (r *RNG) Intn(n int) int { return int(r.Uint64() % uint64(n)) }

// Randn fills a new tensor with N(0, std²) values.
func Randn(rng *RNG, std float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.Data {
		t.Data[i] = rng.Norm() * std
	}
	return t
}
