package sim

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"autopipe/internal/errdefs"
)

// randProfile draws a seeded random profile biased toward the cases that
// stress tie-breaking and degenerate layouts: small integer stage times
// (equal path lengths everywhere, zero-time stages included) or decimal
// tenths, Comm = 0 half of the time, depths 1–16, and micro-batch counts
// both below and above the depth.
func randProfile(rng *rand.Rand) StageProfile {
	n := 1 + rng.Intn(16)
	m := 1 + rng.Intn(2*n+4)
	p := StageProfile{Fwd: make([]float64, n), Bwd: make([]float64, n), Micro: m}
	family := rng.Intn(4)
	for x := 0; x < n; x++ {
		switch family {
		case 0, 1:
			p.Fwd[x] = float64(rng.Intn(4))
			p.Bwd[x] = float64(rng.Intn(6))
		case 2:
			// Decimal tenths: ties that only hold up to rounding, so the
			// order sums are taken in decides them.
			p.Fwd[x] = float64(1+rng.Intn(3)) / 10
			p.Bwd[x] = float64(1+rng.Intn(6)) / 10
		default:
			p.Fwd[x] = rng.Float64() * 3
			p.Bwd[x] = p.Fwd[x] * (1 + rng.Float64())
		}
	}
	switch rng.Intn(4) {
	case 0, 1:
		p.Comm = 0
	case 2:
		p.Comm = float64(rng.Intn(3))
	default:
		p.Comm = rng.Float64() / 4
	}
	return p
}

// TestScratchMatchesReference is the flat recurrence's randomized oracle:
// on 3000 seeded profiles, Scratch.Summarize (through one reused Scratch)
// and SimulateProfile must agree bit for bit with the pointer-graph
// reference on the summary, every op, the critical path, the phase windows,
// and the bubble.
func TestScratchMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var s Scratch
	for trial := 0; trial < 3000; trial++ {
		p := randProfile(rng)
		want, err := refSimulate(p)
		if err != nil {
			t.Fatalf("trial %d: reference: %v", trial, err)
		}
		sum, err := s.Summarize(p)
		if err != nil {
			t.Fatalf("trial %d: Summarize: %v", trial, err)
		}
		if sum != (Summary{IterTime: want.IterTime, Startup: want.Startup, Master: want.Master}) {
			t.Fatalf("trial %d (%+v): summary %+v, reference {%v %v %d}",
				trial, p, sum, want.IterTime, want.Startup, want.Master)
		}
		got, err := SimulateProfile(p)
		if err != nil {
			t.Fatalf("trial %d: SimulateProfile: %v", trial, err)
		}
		if got.IterTime != want.IterTime || got.Startup != want.Startup || got.Master != want.Master {
			t.Fatalf("trial %d: SimulateProfile summary {%v %v %d}, reference {%v %v %d}", trial,
				got.IterTime, got.Startup, got.Master, want.IterTime, want.Startup, want.Master)
		}
		for x := range want.Ops {
			if len(got.Ops[x]) != len(want.Ops[x]) {
				t.Fatalf("trial %d stage %d: %d ops, reference %d", trial, x, len(got.Ops[x]), len(want.Ops[x]))
			}
			for i := range want.Ops[x] {
				if *got.Ops[x][i] != *want.Ops[x][i] {
					t.Fatalf("trial %d stage %d op %d: %+v, reference %+v", trial, x, i, *got.Ops[x][i], *want.Ops[x][i])
				}
			}
		}
		if len(got.Critical) != len(want.Critical) {
			t.Fatalf("trial %d: critical path of %d ops, reference %d", trial, len(got.Critical), len(want.Critical))
		}
		for i := range want.Critical {
			g, w := got.Critical[i], want.Critical[i]
			if g.Stage != w.Stage || g.Micro != w.Micro || g.Kind != w.Kind || g.Phase != w.Phase {
				t.Fatalf("trial %d: critical op %d is %v%d@%d (%v), reference %v%d@%d (%v)", trial, i,
					g.Kind, g.Micro, g.Stage, g.Phase, w.Kind, w.Micro, w.Stage, w.Phase)
			}
		}
		if !reflect.DeepEqual(got.PhaseWindows(), want.PhaseWindows()) {
			t.Fatalf("trial %d: phase windows %v, reference %v", trial, got.PhaseWindows(), want.PhaseWindows())
		}
		if got.Bubble() != want.Bubble() {
			t.Fatalf("trial %d: bubble %v, reference %v", trial, got.Bubble(), want.Bubble())
		}
		if !reflect.DeepEqual(got.F, want.F) || !reflect.DeepEqual(got.B, want.B) || got.Comm != want.Comm || got.Micro != want.Micro {
			t.Fatalf("trial %d: profile echo differs", trial)
		}
	}
}

// TestScratchSummarizeAllocationFree pins the planner's per-candidate
// simulation at zero allocations once the Scratch has grown to the
// profile's size.
func TestScratchSummarizeAllocationFree(t *testing.T) {
	p := StageProfile{
		Fwd:  []float64{1, 1.5, 1, 1.2, 0.8, 1, 1.1, 0.9},
		Bwd:  []float64{2, 3, 2, 2.4, 1.6, 2, 2.2, 1.8},
		Comm: 0.05, Micro: 32,
	}
	var s Scratch
	if _, err := s.Summarize(p); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := s.Summarize(p); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("warmed Scratch.Summarize: %v allocs/op, want 0", n)
	}
}

// TestValidateRejectsNonFinite: NaN or infinite stage times or Comm would
// simulate to a meaningless iteration time; they are configuration errors.
func TestValidateRejectsNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name string
		p    StageProfile
	}{
		{"NaN fwd", StageProfile{Fwd: []float64{1, nan}, Bwd: []float64{2, 2}, Micro: 4}},
		{"NaN bwd", StageProfile{Fwd: []float64{1, 1}, Bwd: []float64{nan, 2}, Micro: 4}},
		{"+Inf fwd", StageProfile{Fwd: []float64{inf, 1}, Bwd: []float64{2, 2}, Micro: 4}},
		{"-Inf bwd", StageProfile{Fwd: []float64{1, 1}, Bwd: []float64{2, -inf}, Micro: 4}},
		{"NaN comm", StageProfile{Fwd: []float64{1, 1}, Bwd: []float64{2, 2}, Comm: nan, Micro: 4}},
		{"+Inf comm", StageProfile{Fwd: []float64{1, 1}, Bwd: []float64{2, 2}, Comm: inf, Micro: 4}},
		{"-Inf comm", StageProfile{Fwd: []float64{1, 1}, Bwd: []float64{2, 2}, Comm: -inf, Micro: 4}},
	} {
		if err := tc.p.Validate(); !errors.Is(err, errdefs.ErrBadConfig) {
			t.Errorf("%s: Validate err = %v, want ErrBadConfig", tc.name, err)
		}
		if r, err := SimulateProfile(tc.p); !errors.Is(err, errdefs.ErrBadConfig) {
			t.Errorf("%s: SimulateProfile = (%v, %v), want ErrBadConfig", tc.name, r, err)
		}
		var s Scratch
		if sum, err := s.Summarize(tc.p); !errors.Is(err, errdefs.ErrBadConfig) {
			t.Errorf("%s: Summarize = (%+v, %v), want ErrBadConfig", tc.name, sum, err)
		}
	}
}
