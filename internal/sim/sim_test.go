package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) <= 1e-9*(1+math.Abs(a)+math.Abs(b)) }

func TestSimulateUniformPipelineMakespan(t *testing.T) {
	// A uniform pipeline with zero comm has the classic 1F1B makespan
	// (m + n - 1) * (f + b).
	for _, tc := range []struct{ n, m int }{{1, 1}, {2, 2}, {2, 8}, {4, 8}, {4, 16}, {8, 16}, {16, 32}} {
		f := make([]float64, tc.n)
		b := make([]float64, tc.n)
		for i := range f {
			f[i], b[i] = 1, 1
		}
		r, err := SimulateProfile(StageProfile{Fwd: f, Bwd: b, Micro: tc.m})
		if err != nil {
			t.Fatalf("SimulateProfile(n=%d,m=%d): %v", tc.n, tc.m, err)
		}
		want := float64(tc.m+tc.n-1) * 2
		if !almostEq(r.IterTime, want) {
			t.Errorf("n=%d m=%d: IterTime = %v, want %v\n%s", tc.n, tc.m, r.IterTime, want, r.Timeline())
		}
	}
}

func TestSimulateSingleStage(t *testing.T) {
	r, err := SimulateProfile(StageProfile{Fwd: []float64{2}, Bwd: []float64{3}, Comm: 0.5, Micro: 4})
	if err != nil {
		t.Fatal(err)
	}
	if want := 4 * (2.0 + 3.0); !almostEq(r.IterTime, want) {
		t.Errorf("IterTime = %v, want %v", r.IterTime, want)
	}
	if r.Startup != 0 {
		t.Errorf("Startup = %v, want 0 for a single stage", r.Startup)
	}
	if r.Master != 0 {
		t.Errorf("Master = %d, want 0", r.Master)
	}
}

func TestSimulateStartupIsFirstMicroBatchArrival(t *testing.T) {
	f := []float64{1, 2, 3, 4}
	b := []float64{2, 4, 6, 8}
	comm := 0.25
	r, err := SimulateProfile(StageProfile{Fwd: f, Bwd: b, Comm: comm, Micro: 8})
	if err != nil {
		t.Fatal(err)
	}
	// The last stage can start once the first micro-batch has traversed the
	// three earlier stages plus three comm hops.
	want := (1 + 2 + 3) + 3*comm
	if !almostEq(r.Startup, want) {
		t.Errorf("Startup = %v, want %v", r.Startup, want)
	}
}

// warmupEstimate is the paper's closed-form Warmup overhead estimate: the
// total forward time of one micro-batch plus the cross-stage hops.
func warmupEstimate(f []float64, comm float64) float64 {
	var t float64
	for _, fx := range f {
		t += fx
	}
	return t + float64(len(f)-1)*comm
}

func TestSimulateWarmupEstimateMatchesBalanced(t *testing.T) {
	// On a perfectly balanced pipeline the paper's Warmup estimate (total
	// forward of one micro-batch plus hops) equals the simulated startup.
	f := []float64{2, 2, 2, 2}
	b := []float64{4, 4, 4, 4}
	comm := 0.1
	r, err := SimulateProfile(StageProfile{Fwd: f, Bwd: b, Comm: comm, Micro: 8})
	if err != nil {
		t.Fatal(err)
	}
	est := warmupEstimate(f[:3], comm) + comm // estimate covers stages 0..n-2 then one hop
	if !almostEq(r.Startup, est) {
		t.Errorf("Startup = %v, estimate %v", r.Startup, est)
	}
}

func TestSimulateMasterIsHeaviestStage(t *testing.T) {
	// Stage 2 carries twice the load; it must dominate the 1F1B critical
	// path and therefore be the master stage.
	f := []float64{1, 1, 2, 1}
	b := []float64{2, 2, 4, 2}
	r, err := SimulateProfile(StageProfile{Fwd: f, Bwd: b, Comm: 0.01, Micro: 8})
	if err != nil {
		t.Fatal(err)
	}
	if r.Master != 2 {
		t.Errorf("Master = %d, want 2\n%s", r.Master, r.Timeline())
	}
}

func TestSimulateMasterTieBreaksTowardLastStage(t *testing.T) {
	// A perfectly balanced pipeline has many equal-length paths; the paper
	// defines the critical path as the one closest to the last stage.
	f := []float64{1, 1, 1, 1}
	b := []float64{2, 2, 2, 2}
	r, err := SimulateProfile(StageProfile{Fwd: f, Bwd: b, Micro: 8})
	if err != nil {
		t.Fatal(err)
	}
	if r.Master != len(f)-1 {
		t.Errorf("Master = %d, want %d (tie-break toward last stage)", r.Master, len(f)-1)
	}
}

func TestSimulateCriticalPathIsContiguousAndSpansIteration(t *testing.T) {
	f := []float64{1, 1.5, 1, 1.2}
	b := []float64{2, 3, 2, 2.4}
	r, err := SimulateProfile(StageProfile{Fwd: f, Bwd: b, Comm: 0.05, Micro: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Critical) == 0 {
		t.Fatal("empty critical path")
	}
	first, last := r.Critical[0], r.Critical[len(r.Critical)-1]
	if first.Stage != 0 || first.Micro != 0 || first.Kind != Fwd {
		t.Errorf("critical path starts at %+v, want F of micro 0 on stage 0", first)
	}
	if !almostEq(last.End, r.IterTime) {
		t.Errorf("critical path ends at %v, want IterTime %v", last.End, r.IterTime)
	}
	for i := 1; i < len(r.Critical); i++ {
		prev, cur := r.Critical[i-1], r.Critical[i]
		if cur.Start < prev.End-1e-12 {
			t.Errorf("critical path not causally ordered: %+v then %+v", prev, cur)
		}
		if d := cur.Stage - prev.Stage; d < -1 || d > 1 {
			t.Errorf("critical path jumps stages: %d -> %d", prev.Stage, cur.Stage)
		}
	}
}

func TestSimulateBlockRenumbering(t *testing.T) {
	// Paper: stage k of an n-stage, m-micro-batch pipeline owns
	// max(0, m-n+k+1) 1F1B blocks.
	n, m := 4, 8
	f := []float64{1, 1, 1, 1}
	b := []float64{2, 2, 2, 2}
	r, err := SimulateProfile(StageProfile{Fwd: f, Bwd: b, Micro: m})
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < n; k++ {
		blocks := 0
		for _, op := range r.Ops[k] {
			if op.Phase == OneFOneB && op.Kind == Fwd {
				blocks++
			}
		}
		want := m - n + k + 1
		if want < 0 {
			want = 0
		}
		if blocks != want {
			t.Errorf("stage %d: %d 1F1B blocks, want %d", k, blocks, want)
		}
	}
}

func TestSimulateOpCountsAndOrdering(t *testing.T) {
	f := []float64{1, 2, 1}
	b := []float64{2, 4, 2}
	m := 6
	r, err := SimulateProfile(StageProfile{Fwd: f, Bwd: b, Comm: 0.1, Micro: m})
	if err != nil {
		t.Fatal(err)
	}
	for x, ops := range r.Ops {
		var fwd, bwd int
		for i, op := range ops {
			if op.Kind == Fwd {
				fwd++
			} else {
				bwd++
			}
			if i > 0 && op.Start < ops[i-1].End-1e-12 {
				t.Errorf("stage %d: op %d starts before predecessor ends", x, i)
			}
		}
		if fwd != m || bwd != m {
			t.Errorf("stage %d: %d fwd / %d bwd ops, want %d each", x, fwd, bwd, m)
		}
	}
}

func TestSimulateFewerMicroBatchesThanStages(t *testing.T) {
	// m < n degenerates into a GPipe-like fill/drain; it must still simulate.
	f := []float64{1, 1, 1, 1, 1}
	b := []float64{2, 2, 2, 2, 2}
	r, err := SimulateProfile(StageProfile{Fwd: f, Bwd: b, Micro: 2})
	if err != nil {
		t.Fatal(err)
	}
	if r.IterTime <= 0 {
		t.Errorf("IterTime = %v, want positive", r.IterTime)
	}
}

func TestSimulateErrors(t *testing.T) {
	if _, err := SimulateProfile(StageProfile{Micro: 1}); err == nil {
		t.Error("want error for empty stages")
	}
	if _, err := SimulateProfile(StageProfile{Fwd: []float64{1}, Bwd: []float64{1, 2}, Micro: 1}); err == nil {
		t.Error("want error for mismatched lengths")
	}
	if _, err := SimulateProfile(StageProfile{Fwd: []float64{1}, Bwd: []float64{1}, Micro: 0}); err == nil {
		t.Error("want error for zero micro-batches")
	}
	if _, err := SimulateProfile(StageProfile{Fwd: []float64{-1}, Bwd: []float64{1}, Micro: 1}); err == nil {
		t.Error("want error for negative time")
	}
}

func TestSimulateMonotoneInLoad(t *testing.T) {
	// Property: increasing any stage's time never decreases the iteration
	// time, and adding micro-batches never decreases it either.
	cfg := &quick.Config{MaxCount: 60}
	prop := func(seed uint8, bump uint8) bool {
		n := 2 + int(seed%4)
		m := 2 + int(seed%8)
		f := make([]float64, n)
		b := make([]float64, n)
		for i := range f {
			f[i] = 1 + float64((int(seed)+i*7)%5)
			b[i] = 2 * f[i]
		}
		base, err := SimulateProfile(StageProfile{Fwd: f, Bwd: b, Comm: 0.1, Micro: m})
		if err != nil {
			return false
		}
		j := int(bump) % n
		f[j] += 1.5
		heavier, err := SimulateProfile(StageProfile{Fwd: f, Bwd: b, Comm: 0.1, Micro: m})
		if err != nil {
			return false
		}
		more, err := SimulateProfile(StageProfile{Fwd: f, Bwd: b, Comm: 0.1, Micro: m + 1})
		if err != nil {
			return false
		}
		return heavier.IterTime >= base.IterTime-1e-9 && more.IterTime >= heavier.IterTime-1e-9
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func TestSimulateBubbleNonNegative(t *testing.T) {
	prop := func(a, b8, c uint8) bool {
		f := []float64{1 + float64(a%7), 1 + float64(b8%7), 1 + float64(c%7)}
		bw := []float64{2 * f[0], 2 * f[1], 2 * f[2]}
		r, err := SimulateProfile(StageProfile{Fwd: f, Bwd: bw, Comm: 0.05, Micro: 6})
		if err != nil {
			return false
		}
		return r.Bubble() >= -1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestPhaseWindows(t *testing.T) {
	f := []float64{1, 1.5, 1.2, 0.8}
	b := []float64{2, 3, 2.4, 1.6}
	r, err := SimulateProfile(StageProfile{Fwd: f, Bwd: b, Comm: 0.05, Micro: 8})
	if err != nil {
		t.Fatal(err)
	}
	windows := r.PhaseWindows()
	if len(windows) != len(f) {
		t.Fatalf("%d windows for %d stages", len(windows), len(f))
	}
	for x, w := range windows {
		if !(0 <= w[0] && w[0] <= w[1] && w[1] <= r.IterTime) {
			t.Errorf("stage %d: window %v not ordered within makespan %g", x, w, r.IterTime)
		}
		// The window must bracket exactly the stage's 1F1B-phase ops.
		for _, op := range r.Ops[x] {
			in := op.Start >= w[0]-1e-12 && op.End <= w[1]+1e-12
			if (op.Phase == OneFOneB) != in {
				t.Errorf("stage %d op %v%d phase %v vs window %v [%g,%g]", x, op.Kind, op.Micro, op.Phase, w, op.Start, op.End)
			}
		}
	}
	// The last stage has no warmup ops: its warmup window is exactly the
	// startup overhead.
	if last := windows[len(windows)-1]; last[0] != r.Startup {
		t.Errorf("last stage warmup window ends at %g, want startup %g", last[0], r.Startup)
	}
}
