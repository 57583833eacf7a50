package exec

import (
	"errors"
	"math"
	"testing"

	"autopipe/internal/config"
	"autopipe/internal/errdefs"
	"autopipe/internal/schedule"
)

func uniformCfg(p int, f, b float64) Config {
	fs := make([]float64, p)
	bs := make([]float64, p)
	for i := range fs {
		fs[i], bs[i] = f, b
	}
	return Config{
		VirtFwd: fs, VirtBwd: bs,
		CommBytes: 0,
		Network:   config.Network{Bandwidth: 1e12, Latency: 0},
	}
}

func almostEq(a, b float64) bool { return math.Abs(a-b) <= 1e-9*(1+math.Abs(a)+math.Abs(b)) }

func TestRunOneFOneBMatchesClassicMakespan(t *testing.T) {
	for _, tc := range []struct{ p, m int }{{1, 4}, {2, 4}, {4, 8}, {8, 16}} {
		s, err := schedule.OneFOneB(tc.p, tc.m)
		if err != nil {
			t.Fatal(err)
		}
		r, err := Run(s, uniformCfg(tc.p, 1, 2))
		if err != nil {
			t.Fatal(err)
		}
		want := float64(tc.m+tc.p-1) * 3
		if !almostEq(r.IterTime, want) {
			t.Errorf("p=%d m=%d: IterTime = %v, want %v", tc.p, tc.m, r.IterTime, want)
		}
	}
}

func TestRunGPipeSlowerThanOneFOneBAtEqualLoad(t *testing.T) {
	// With uniform stages and zero comm GPipe and 1F1B have the same
	// fill/drain makespan, but GPipe must hold all activations; its makespan
	// must never be smaller.
	p, m := 4, 16
	g, _ := schedule.GPipe(p, m)
	o, _ := schedule.OneFOneB(p, m)
	rg, err := Run(g, uniformCfg(p, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	ro, err := Run(o, uniformCfg(p, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if rg.IterTime < ro.IterTime-1e-9 {
		t.Errorf("GPipe %v faster than 1F1B %v", rg.IterTime, ro.IterTime)
	}
}

func TestRunStartupIsFirstMicroBatchArrival(t *testing.T) {
	p, m := 4, 8
	s, _ := schedule.OneFOneB(p, m)
	cfg := uniformCfg(p, 1, 2)
	cfg.CommBytes = 1e6
	cfg.Network = config.Network{Bandwidth: 1e8, Latency: 0.001}
	r, err := Run(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	hop := cfg.Network.Latency + 1e6/1e8
	want := 3*1 + 3*hop
	if !almostEq(r.Startup, want) {
		t.Errorf("Startup = %v, want %v", r.Startup, want)
	}
}

func TestRunSlicedHalvesStartup(t *testing.T) {
	// The headline Slicer claim: splitting the leading micro-batches halves
	// the startup overhead (compute part) of the pipeline.
	p, m := 4, 8
	plain, _ := schedule.OneFOneB(p, m)
	sliced, err := schedule.Sliced(p, m, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := uniformCfg(p, 1, 2)
	rp, err := Run(plain, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := Run(sliced, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(rp.Startup, 3) {
		t.Fatalf("plain startup = %v, want 3", rp.Startup)
	}
	if !almostEq(rs.Startup, 1.5) {
		t.Errorf("sliced startup = %v, want 1.5 (half of plain)", rs.Startup)
	}
	if rs.IterTime > rp.IterTime+1e-9 {
		t.Errorf("sliced iteration %v slower than plain %v", rs.IterTime, rp.IterTime)
	}
}

func TestRunSlicedPreservesWorkAndFinishes(t *testing.T) {
	p, m := 4, 8
	for sliced := 0; sliced <= m; sliced++ {
		s, err := schedule.Sliced(p, m, sliced)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("sliced=%d: %v", sliced, err)
		}
		r, err := Run(s, uniformCfg(p, 1, 2))
		if err != nil {
			t.Fatalf("sliced=%d: %v", sliced, err)
		}
		// Total busy time is invariant: halves add up to the same compute.
		var busy float64
		for _, b := range r.Busy {
			busy += b
		}
		if want := float64(p*m) * 3; !almostEq(busy, want) {
			t.Errorf("sliced=%d: total busy %v, want %v", sliced, busy, want)
		}
	}
}

func TestRunInterleavedHalvesStartup(t *testing.T) {
	// Megatron's interleaved schedule with v=2 chunks halves the startup
	// overhead: each warmup hop computes half a stage.
	p, m := 4, 8
	plain, _ := schedule.OneFOneB(p, m)
	inter, err := schedule.Interleaved(p, m, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfgPlain := uniformCfg(p, 1, 2)
	rp, err := Run(plain, cfgPlain)
	if err != nil {
		t.Fatal(err)
	}
	// Each of the 8 virtual stages carries half a stage of compute.
	cfgInter := uniformCfg(2*p, 0.5, 1)
	ri, err := Run(inter, cfgInter)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(ri.Startup, rp.Startup/2) {
		t.Errorf("interleaved startup = %v, want %v (half of plain %v)", ri.Startup, rp.Startup/2, rp.Startup)
	}
}

func TestRunInterleavedRequiresDivisibility(t *testing.T) {
	if _, err := schedule.Interleaved(4, 6, 2); err == nil {
		t.Error("want error for micro-batches not divisible by depth")
	}
	if _, err := schedule.Interleaved(4, 8, 1); err == nil {
		t.Error("want error for single chunk")
	}
}

func TestRunKernelOverheadAddsStableBias(t *testing.T) {
	// The executor charges launch overhead the analytic simulator omits —
	// the mechanism behind the Fig. 11 gap. The bias must be positive and
	// grow with the op count.
	p, m := 4, 8
	s, _ := schedule.OneFOneB(p, m)
	base, err := Run(s, uniformCfg(p, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	cfg := uniformCfg(p, 1, 2)
	cfg.KernelOverhead = 0.01
	biased, err := Run(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if biased.IterTime <= base.IterTime {
		t.Errorf("overheads did not increase iteration time: %v vs %v", biased.IterTime, base.IterTime)
	}
}

func TestRunJitterIsDeterministic(t *testing.T) {
	p, m := 4, 8
	s, _ := schedule.OneFOneB(p, m)
	cfg := uniformCfg(p, 1, 2)
	cfg.Jitter = 0.05
	cfg.Seed = 42
	r1, err := Run(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r1.IterTime != r2.IterTime {
		t.Errorf("same seed gave different results: %v vs %v", r1.IterTime, r2.IterTime)
	}
	cfg.Seed = 43
	r3, err := Run(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r3.IterTime == r1.IterTime {
		t.Errorf("different seeds gave identical jitter")
	}
}

func TestRunDependencyOrderHolds(t *testing.T) {
	// No forward may start before the matching forward upstream ended, and
	// no backward before the matching backward downstream ended.
	p, m := 4, 8
	s, _ := schedule.OneFOneB(p, m)
	cfg := uniformCfg(p, 1, 2)
	cfg.CommBytes = 1 << 20
	cfg.Network = config.Network{Bandwidth: 1e9, Latency: 1e-4}
	r, err := Run(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	type key struct {
		virt, micro int
		kind        schedule.OpKind
	}
	end := map[key]float64{}
	for _, traces := range r.Traces {
		for _, tr := range traces {
			end[key{tr.Op.Virt, tr.Op.Micro, tr.Op.Kind}] = tr.End
		}
	}
	for _, traces := range r.Traces {
		for _, tr := range traces {
			if tr.Op.Kind == schedule.Fwd && tr.Op.Virt > 0 {
				if up := end[key{tr.Op.Virt - 1, tr.Op.Micro, schedule.Fwd}]; tr.Start < up {
					t.Errorf("%v starts at %v before upstream fwd ended at %v", tr.Op, tr.Start, up)
				}
			}
			if tr.Op.Kind == schedule.Bwd && tr.Op.Virt < s.VirtStages-1 {
				if down := end[key{tr.Op.Virt + 1, tr.Op.Micro, schedule.Bwd}]; tr.Start < down {
					t.Errorf("%v starts at %v before downstream bwd ended at %v", tr.Op, tr.Start, down)
				}
			}
		}
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	s, _ := schedule.OneFOneB(4, 8)
	_, err := Run(s, Config{VirtFwd: []float64{1}, VirtBwd: []float64{1}})
	if err == nil {
		t.Error("want error for mismatched stage times")
	}
}

func TestUtilizationBounded(t *testing.T) {
	s, _ := schedule.OneFOneB(4, 8)
	r, err := Run(s, uniformCfg(4, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	for d, u := range r.Utilization() {
		if u <= 0 || u > 1+1e-9 {
			t.Errorf("device %d utilization %v out of (0,1]", d, u)
		}
	}
}

// TestConfigValidate: every structurally bad config is rejected up front
// with ErrBadConfig, by Validate and by Run alike.
func TestConfigValidate(t *testing.T) {
	base := uniformCfg(2, 1, 2)
	cases := map[string]func(*Config){
		"mismatched vectors": func(c *Config) { c.VirtBwd = c.VirtBwd[:1] },
		"negative stage":     func(c *Config) { c.VirtFwd[0] = -1 },
		"NaN stage":          func(c *Config) { c.VirtBwd[1] = math.NaN() },
		"negative payload":   func(c *Config) { c.CommBytes = -1 },
		"zero bandwidth":     func(c *Config) { c.Network.Bandwidth = 0 },
		"negative bandwidth": func(c *Config) { c.Network.Bandwidth = -5 },
		"negative latency":   func(c *Config) { c.Network.Latency = -1 },
		"negative overhead":  func(c *Config) { c.KernelOverhead = -1e-6 },
		"negative jitter":    func(c *Config) { c.Jitter = -0.1 },
	}
	s, _ := schedule.OneFOneB(2, 2)
	for name, mutate := range cases {
		cfg := base
		cfg.VirtFwd = append([]float64(nil), base.VirtFwd...)
		cfg.VirtBwd = append([]float64(nil), base.VirtBwd...)
		mutate(&cfg)
		if err := cfg.Validate(); !errors.Is(err, errdefs.ErrBadConfig) {
			t.Errorf("%s: Validate = %v, want ErrBadConfig", name, err)
		}
		if _, err := Run(s, cfg); !errors.Is(err, errdefs.ErrBadConfig) {
			t.Errorf("%s: Run = %v, want ErrBadConfig", name, err)
		}
	}
}
