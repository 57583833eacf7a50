package slicer

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"autopipe/internal/config"
	"autopipe/internal/exec"
	"autopipe/internal/schedule"
	"autopipe/internal/sim"
)

// solveUniform runs SolveProfile on a uniform pipeline: p stages, each with
// forward f and backward b.
func solveUniform(p int, f, b, comm float64, m int) (Plan, error) {
	fs := make([]float64, p)
	bs := make([]float64, p)
	for i := range fs {
		fs[i], bs[i] = f, b
	}
	return SolveProfile(sim.StageProfile{Fwd: fs, Bwd: bs, Comm: comm, Micro: m})
}

func TestSolveUniformSlicesOne(t *testing.T) {
	// The paper's Fig. 8 example: a 4-stage pipeline with checkpointed
	// backward (b = 3f) needs only micro-batch 0 sliced.
	p, err := solveUniform(4, 1, 3, 0.01, 8)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumSliced != 1 {
		t.Errorf("NumSliced = %d, want 1", p.NumSliced)
	}
}

func TestSolveSingleStage(t *testing.T) {
	p, err := solveUniform(1, 1, 2, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumSliced != 0 {
		t.Errorf("single stage sliced %d micro-batches, want 0", p.NumSliced)
	}
}

func TestSolveErrors(t *testing.T) {
	if _, err := SolveProfile(sim.StageProfile{Micro: 4}); err == nil {
		t.Error("want error for empty stages")
	}
	if _, err := SolveProfile(sim.StageProfile{Fwd: []float64{1}, Bwd: []float64{1, 2}, Micro: 4}); err == nil {
		t.Error("want error for mismatched lengths")
	}
	if _, err := SolveProfile(sim.StageProfile{Fwd: []float64{1}, Bwd: []float64{2}, Micro: 0}); err == nil {
		t.Error("want error for zero micro-batches")
	}
}

func TestSolveLightBackwardSlicesMore(t *testing.T) {
	// Without checkpointing (b < 2f) the deadline is tighter and more
	// micro-batches must be sliced than with a heavy backward.
	heavy, err := solveUniform(6, 1, 3, 0.01, 12)
	if err != nil {
		t.Fatal(err)
	}
	light, err := solveUniform(6, 1, 1.2, 0.01, 12)
	if err != nil {
		t.Fatal(err)
	}
	if light.NumSliced < heavy.NumSliced {
		t.Errorf("light backward sliced %d < heavy %d", light.NumSliced, heavy.NumSliced)
	}
}

func TestSolveBounds(t *testing.T) {
	// The answer never exceeds the warmup depth or the iteration size.
	prop := func(pRaw, mRaw, bRaw uint8) bool {
		p := 2 + int(pRaw)%10
		m := 1 + int(mRaw)%20
		b := 1 + float64(bRaw%40)/10
		plan, err := solveUniform(p, 1, b, 0.02, m)
		if err != nil {
			return false
		}
		return plan.NumSliced >= 1 && plan.NumSliced <= p && plan.NumSliced <= m
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestSolvedCountHalvesStartupWithoutSlowingIteration is the paper's core
// Slicer claim, verified end-to-end on the executor: the solved slicing
// count halves the startup overhead and never lengthens the iteration. It
// runs on five uniform profiles and on 600 seeded non-uniform ones (p 2–12,
// m ∈ {p, 2p, 4p}, per-stage forward times in [0.5, 1.5) and backward/forward
// ratios in [1, 3.5), no communication), and logs how far Algorithm 2's
// count is from the best count k ≤ p on the executor.
func TestSolvedCountHalvesStartupWithoutSlowingIteration(t *testing.T) {
	type profile struct {
		f, b []float64
		m    int
	}
	uniform := func(p, m int, f, b float64) profile {
		pr := profile{f: make([]float64, p), b: make([]float64, p), m: m}
		for i := range pr.f {
			pr.f[i], pr.b[i] = f, b
		}
		return pr
	}
	profiles := []profile{
		uniform(4, 8, 1, 3),
		uniform(8, 16, 1, 3),
		uniform(12, 24, 1, 3),
		uniform(4, 8, 1, 2),
		uniform(6, 12, 2, 6),
	}
	// -short (the race-detector run) keeps the first 60 random profiles:
	// the full sweep takes 3 s plain and 40 s under -race.
	n := 600
	if testing.Short() {
		n = 60
	}
	rng := rand.New(rand.NewSource(8))
	for range n {
		p := 2 + rng.Intn(11)
		pr := profile{f: make([]float64, p), b: make([]float64, p), m: p << rng.Intn(3)}
		for i := range pr.f {
			pr.f[i] = 0.5 + rng.Float64()
			pr.b[i] = pr.f[i] * (1 + 2.5*rng.Float64())
		}
		profiles = append(profiles, pr)
	}

	cfg := exec.Config{Network: config.Network{Bandwidth: 1e12, Latency: 0}}
	run := func(pr profile, k int) *exec.Result {
		t.Helper()
		s, err := schedule.Sliced(len(pr.f), pr.m, k)
		if err != nil {
			t.Fatal(err)
		}
		cfg.VirtFwd, cfg.VirtBwd = pr.f, pr.b
		r, err := exec.Run(s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	var gapped int
	var worst float64
	for _, pr := range profiles {
		p := len(pr.f)
		plan, err := SolveProfile(sim.StageProfile{Fwd: pr.f, Bwd: pr.b, Micro: pr.m})
		if err != nil {
			t.Fatal(err)
		}
		rb, rs := run(pr, 0), run(pr, plan.NumSliced)
		if rs.Startup > rb.Startup/2+1e-9 {
			t.Errorf("p=%d m=%d f=%v b=%v sliced=%d: startup %v, want <= half of %v",
				p, pr.m, pr.f, pr.b, plan.NumSliced, rs.Startup, rb.Startup)
		}
		if rs.IterTime > rb.IterTime+1e-9 {
			t.Errorf("p=%d m=%d f=%v b=%v sliced=%d: iteration %v slower than base %v",
				p, pr.m, pr.f, pr.b, plan.NumSliced, rs.IterTime, rb.IterTime)
		}
		best := rs.IterTime
		for k := 1; k <= p && k <= pr.m; k++ {
			best = math.Min(best, run(pr, k).IterTime)
		}
		if gap := rs.IterTime/best - 1; gap > 1e-9 {
			gapped++
			worst = math.Max(worst, gap)
		}
	}
	t.Logf("%d profiles: a count k <= p beats Algorithm 2's on the executor in %d, worst gap %.2f%%",
		len(profiles), gapped, 100*worst)
}

func TestSolveMatchesGeometry(t *testing.T) {
	p, err := solveUniform(4, 1, 3, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if p.Stages != 4 || p.Micro != 8 {
		t.Errorf("plan geometry %+v, want stages 4 micro 8", p)
	}
}
