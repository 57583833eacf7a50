package sim

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"slices"
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
// on 3000 seeded profiles, then 300 more at the plan-cold zoo's scale (up to
// 16 stages and 128 micro-batches, where randProfile stops at 36),
// Scratch.Summarize (through one reused Scratch) and SimulateProfile must
// agree bit for bit with the pointer-graph reference on the summary, every
// op, the critical path, the phase windows, and the bubble.
func TestScratchMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var s Scratch
	for trial := 0; trial < 3000; trial++ {
		checkAgainstReference(t, &s, trial, randProfile(rng))
	}
	for trial := 3000; trial < 3300; trial++ {
		p := randProfile(rng)
		p.Micro = 1 + rng.Intn(128)
		checkAgainstReference(t, &s, trial, p)
	}
}

// TestKernelBoundarySweep runs the phase-structured kernel over every depth
// 1–16 at the micro-batch counts where the phase layout changes shape — m
// below, at and just above n-1 (empty, single-op and one-block 1F1B
// phases), 2n and 128 — with tie-heavy integer stage times (zero-time
// stages included) and Comm 0 and 1, each checked bit for bit against the
// reference. It also requires the sweep to reach every crit code and a
// critical path that starts off stage 0, and every critical path to have a
// 1F1B op: Summarize takes the master from the 1F1B dwell alone, with no
// fallback for a path outside that phase (see the argument there).
func TestKernelBoundarySweep(t *testing.T) {
	var (
		s       Scratch
		seen    [critDown + 1]bool
		offZero bool
	)
	trial := 0
	for n := 1; n <= 16; n++ {
		var done []int
		for _, m := range []int{1, n - 2, n - 1, n, n + 1, 2 * n, 128} {
			if m < 1 || slices.Contains(done, m) {
				continue
			}
			done = append(done, m)
			for _, comm := range []float64{0, 1} {
				for family := 0; family < 4; family++ {
					p := StageProfile{Fwd: make([]float64, n), Bwd: make([]float64, n), Comm: comm, Micro: m}
					for x := 0; x < n; x++ {
						switch family {
						case 0: // uniform: every path ties
							p.Fwd[x], p.Bwd[x] = 1, 2
						case 1: // small integers, zero-time stages included
							p.Fwd[x], p.Bwd[x] = float64((x*7+n+m)%3), float64((x*5+m)%4)
						case 2: // one heavy stage, the rest tied
							p.Fwd[x], p.Bwd[x] = 1, 2
							if x == (n+m)%n {
								p.Fwd[x], p.Bwd[x] = 3, 6
							}
						default: // all work on stage 0, the closest a path
							// comes to staying outside every 1F1B phase
							if x == 0 {
								p.Fwd[x], p.Bwd[x] = 1, 2
							}
						}
					}
					checkAgainstReference(t, &s, trial, p)
					trial++
					for _, c := range s.crit {
						seen[c] = true
					}
					r := checkSteadyOnPath(t, trial, p)
					if r.Critical[0].Stage != 0 {
						offZero = true
					}
				}
			}
		}
	}
	for c, ok := range seen {
		if !ok {
			t.Errorf("crit code %d never occurs in the sweep", c)
		}
	}
	if !offZero {
		t.Error("no swept critical path starts off stage 0")
	}
}

// checkSteadyOnPath fails unless the reference critical path of p has a
// 1F1B op, and returns the reference result.
func checkSteadyOnPath(t *testing.T, trial int, p StageProfile) *Result {
	t.Helper()
	r, err := refSimulate(p)
	if err != nil {
		t.Fatalf("trial %d: reference: %v", trial, err)
	}
	if !slices.ContainsFunc(r.Critical, func(op *Op) bool { return op.Phase == OneFOneB }) {
		t.Fatalf("trial %d (%+v): critical path has no 1F1B op", trial, p)
	}
	return r
}

// FuzzSummarize decodes arbitrary bytes into a bounded profile — up to 16
// stages and 64 micro-batches, stage times and Comm either small integers
// (ties everywhere) or tenths (ties only up to rounding) — and checks
// Scratch.Summarize and SimulateProfile bit for bit against the reference,
// and that the critical path has a 1F1B op.
// The kernel indexes its flat arrays by raw offset arithmetic, and the
// daemon feeds it untrusted profiles. The Scratch is first warmed on a
// larger profile, so every input also runs over stale, oversized backing.
// Run with `go test -run='^$' -fuzz=FuzzSummarize ./internal/sim`.
func FuzzSummarize(f *testing.F) {
	f.Add([]byte{3, 7, 0, 1, 2, 1, 2, 1, 2})
	f.Add([]byte{15, 63, 1})
	f.Add([]byte{7, 2, 130, 0, 0, 3, 200, 1, 5})
	f.Add([]byte{0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		at := func(i int) byte {
			if i < len(data) {
				return data[i]
			}
			return 0
		}
		// dur decodes a byte into an integer 0–7 or a tenth 0.0–12.7.
		dur := func(b byte) float64 {
			if b < 128 {
				return float64(b % 8)
			}
			return float64(b-128) / 10
		}
		n, m := 1+int(at(0))%16, 1+int(at(1))%64
		p := StageProfile{Fwd: make([]float64, n), Bwd: make([]float64, n), Comm: dur(at(2)), Micro: m}
		for x := 0; x < n; x++ {
			p.Fwd[x], p.Bwd[x] = dur(at(3+2*x)), dur(at(4+2*x))
		}
		var s Scratch
		warm := StageProfile{Fwd: make([]float64, 16), Bwd: make([]float64, 16), Comm: 1, Micro: 64}
		for x := range warm.Fwd {
			warm.Fwd[x], warm.Bwd[x] = 1, 2
		}
		if _, err := s.Summarize(warm); err != nil {
			t.Fatal(err)
		}
		checkAgainstReference(t, &s, 0, p)
		checkSteadyOnPath(t, 0, p)
	})
}

// checkAgainstReference compares s and SimulateProfile on p with the
// reference simulator.
func checkAgainstReference(t *testing.T, s *Scratch, trial int, p StageProfile) {
	t.Helper()
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

// TestValidateCapsOps: a profile whose op count 2·n·m exceeds maxOps is a
// configuration error, decided without computing 2·n·m (which overflows for
// the largest counts), so Summarize and SimulateProfile reject it instead of
// indexing out of range or allocating without limit. The cap is inclusive.
func TestValidateCapsOps(t *testing.T) {
	prof := func(n, m int) StageProfile {
		return StageProfile{Fwd: make([]float64, n), Bwd: make([]float64, n), Micro: m}
	}
	if err := prof(16, maxOps/32).Validate(); err != nil {
		t.Errorf("16 stages x %d micro-batches, exactly at the cap: %v", maxOps/32, err)
	}
	for _, tc := range []struct{ n, m int }{
		{16, maxOps/32 + 1},
		{1, maxOps/2 + 1},
		{maxOps/2 + 1, 1},
		{2, 1 << 61},
		{1, math.MaxInt},
	} {
		p := prof(tc.n, tc.m)
		if err := p.Validate(); !errors.Is(err, errdefs.ErrBadConfig) {
			t.Errorf("%d stages x %d micro-batches: got %v, want ErrBadConfig", tc.n, tc.m, err)
		}
		var s Scratch
		if _, err := s.Summarize(p); !errors.Is(err, errdefs.ErrBadConfig) {
			t.Errorf("Summarize %d stages x %d micro-batches: got %v, want ErrBadConfig", tc.n, tc.m, err)
		}
		if _, err := SimulateProfile(p); !errors.Is(err, errdefs.ErrBadConfig) {
			t.Errorf("SimulateProfile %d stages x %d micro-batches: got %v, want ErrBadConfig", tc.n, tc.m, err)
		}
	}
}
