package bench

import (
	"errors"
	"flag"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"autopipe/internal/errdefs"
)

func validBaseline() *Baseline {
	return &Baseline{
		Label:     "test",
		Suite:     SuiteID,
		GoVersion: "go1.22",
		Benchmarks: []Entry{
			{
				Name: "obs/registry_update", Iters: 100, NsPerOp: 50, AllocsPerOp: 0, BytesPerOp: 0,
			},
			{
				Name: "planner/plan_gpt2_345m_g8", Iters: 10, NsPerOp: 2e6, AllocsPerOp: 900, BytesPerOp: 65536,
				Custom: map[string]float64{"cache_hit_ratio": 0.8, "candidates_per_plan": 120},
			},
		},
	}
}

func TestEncodeParseRoundTrip(t *testing.T) {
	b := validBaseline()
	data, err := b.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if data[len(data)-1] != '\n' {
		t.Error("Encode output missing trailing newline")
	}
	got, err := ParseBaseline(data)
	if err != nil {
		t.Fatalf("ParseBaseline: %v", err)
	}
	if got.Label != b.Label || got.Suite != b.Suite || len(got.Benchmarks) != len(b.Benchmarks) {
		t.Errorf("round trip mismatch: got %+v", got)
	}
	if got.Benchmarks[1].Custom["cache_hit_ratio"] != 0.8 {
		t.Errorf("custom metric lost in round trip: %+v", got.Benchmarks[1].Custom)
	}
}

func TestParseBaselineRejects(t *testing.T) {
	cases := []struct {
		name string
		json string
	}{
		{"unknown field", `{"label":"x","suite":"autopipebench/1","goVersion":"go1.22","benchmarks":[{"name":"a","iters":1,"nsPerOp":1,"allocsPerOp":0,"bytesPerOp":0}],"extra":1}`},
		{"unknown entry field", `{"label":"x","suite":"autopipebench/1","goVersion":"go1.22","benchmarks":[{"name":"a","iters":1,"nsPerOp":1,"allocsPerOp":0,"bytesPerOp":0,"wat":2}]}`},
		{"trailing data", `{"label":"x","suite":"autopipebench/1","goVersion":"go1.22","benchmarks":[{"name":"a","iters":1,"nsPerOp":1,"allocsPerOp":0,"bytesPerOp":0}]} {}`},
		{"no label", `{"label":"","suite":"autopipebench/1","goVersion":"go1.22","benchmarks":[{"name":"a","iters":1,"nsPerOp":1,"allocsPerOp":0,"bytesPerOp":0}]}`},
		{"foreign suite", `{"label":"x","suite":"otherbench/1","goVersion":"go1.22","benchmarks":[{"name":"a","iters":1,"nsPerOp":1,"allocsPerOp":0,"bytesPerOp":0}]}`},
		{"no benchmarks", `{"label":"x","suite":"autopipebench/1","goVersion":"go1.22","benchmarks":[]}`},
		{"duplicate name", `{"label":"x","suite":"autopipebench/1","goVersion":"go1.22","benchmarks":[{"name":"a","iters":1,"nsPerOp":1,"allocsPerOp":0,"bytesPerOp":0},{"name":"a","iters":1,"nsPerOp":1,"allocsPerOp":0,"bytesPerOp":0}]}`},
		{"zero iters", `{"label":"x","suite":"autopipebench/1","goVersion":"go1.22","benchmarks":[{"name":"a","iters":0,"nsPerOp":1,"allocsPerOp":0,"bytesPerOp":0}]}`},
		{"negative nsPerOp", `{"label":"x","suite":"autopipebench/1","goVersion":"go1.22","benchmarks":[{"name":"a","iters":1,"nsPerOp":-1,"allocsPerOp":0,"bytesPerOp":0}]}`},
		{"not json", `bench: 12 ns/op`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseBaseline([]byte(tc.json))
			if err == nil {
				t.Fatalf("ParseBaseline accepted %s", tc.name)
			}
			if !errors.Is(err, errdefs.ErrBadConfig) {
				t.Errorf("error does not wrap ErrBadConfig: %v", err)
			}
		})
	}
}

func TestValidateRejectsNonFiniteCustom(t *testing.T) {
	b := validBaseline()
	b.Benchmarks[1].Custom["bad"] = math.NaN()
	if err := b.Validate(); !errors.Is(err, errdefs.ErrBadConfig) {
		t.Errorf("NaN custom metric not rejected: %v", err)
	}
}

func TestLoadBaselineFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_test.json")
	if err := validBaseline().WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Label != "test" {
		t.Errorf("Label = %q, want test", got.Label)
	}
	if _, err := LoadBaseline(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("LoadBaseline on missing file succeeded")
	}
}

func TestCompareSelfIsClean(t *testing.T) {
	b := validBaseline()
	rep, err := Compare(b, b, DefaultThresholds())
	if err != nil {
		t.Fatal(err)
	}
	if reg := rep.Regressions(); len(reg) != 0 {
		t.Errorf("self-compare regressed: %+v", reg)
	}
	if len(rep.MissingInNew) != 0 || len(rep.AddedInNew) != 0 {
		t.Errorf("self-compare reported shape drift: %+v / %+v", rep.MissingInNew, rep.AddedInNew)
	}
}

func TestCompareFlagsRegressions(t *testing.T) {
	old := validBaseline()
	th := DefaultThresholds()

	fresh := func() *Baseline {
		data, err := old.Encode()
		if err != nil {
			t.Fatal(err)
		}
		b, err := ParseBaseline(data)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	t.Run("ns regression past pct+abs", func(t *testing.T) {
		nb := fresh()
		nb.Benchmarks[1].NsPerOp = old.Benchmarks[1].NsPerOp * 1.5
		rep, err := Compare(old, nb, th)
		if err != nil {
			t.Fatal(err)
		}
		reg := rep.Regressions()
		if len(reg) != 1 || reg[0].Metric != "nsPerOp" || reg[0].Bench != "planner/plan_gpt2_345m_g8" {
			t.Errorf("Regressions() = %+v, want single planner nsPerOp", reg)
		}
	})

	t.Run("abs slack shields tiny values", func(t *testing.T) {
		nb := fresh()
		// 50 -> 90 ns is +80% but within the 50 ns absolute slack.
		nb.Benchmarks[0].NsPerOp = 90
		rep, err := Compare(old, nb, th)
		if err != nil {
			t.Fatal(err)
		}
		if reg := rep.Regressions(); len(reg) != 0 {
			t.Errorf("tiny absolute increase flagged: %+v", reg)
		}
	})

	t.Run("alloc creep past half-alloc slack", func(t *testing.T) {
		nb := fresh()
		// 0 -> 1 alloc/op clears old*(1+0.10)+0.5 = 0.5.
		nb.Benchmarks[0].AllocsPerOp = 1
		rep, err := Compare(old, nb, th)
		if err != nil {
			t.Fatal(err)
		}
		reg := rep.Regressions()
		if len(reg) != 1 || reg[0].Metric != "allocsPerOp" {
			t.Errorf("Regressions() = %+v, want single allocsPerOp", reg)
		}
	})

	t.Run("higher-better custom drop", func(t *testing.T) {
		nb := fresh()
		// cache_hit_ratio 0.8 -> 0.5 is below 0.8*(1-0.25) = 0.6.
		nb.Benchmarks[1].Custom["cache_hit_ratio"] = 0.5
		rep, err := Compare(old, nb, th)
		if err != nil {
			t.Fatal(err)
		}
		reg := rep.Regressions()
		if len(reg) != 1 || reg[0].Metric != "cache_hit_ratio" {
			t.Errorf("Regressions() = %+v, want single cache_hit_ratio", reg)
		}
	})

	t.Run("informational custom never gates", func(t *testing.T) {
		nb := fresh()
		nb.Benchmarks[1].Custom["candidates_per_plan"] = 10 * old.Benchmarks[1].Custom["candidates_per_plan"]
		rep, err := Compare(old, nb, th)
		if err != nil {
			t.Fatal(err)
		}
		if reg := rep.Regressions(); len(reg) != 0 {
			t.Errorf("informational metric gated: %+v", reg)
		}
	})

	t.Run("shape drift reported", func(t *testing.T) {
		nb := fresh()
		nb.Benchmarks[0].Name = "obs/renamed"
		rep, err := Compare(old, nb, th)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.MissingInNew) != 1 || rep.MissingInNew[0] != "obs/registry_update" {
			t.Errorf("MissingInNew = %+v", rep.MissingInNew)
		}
		if len(rep.AddedInNew) != 1 || rep.AddedInNew[0] != "obs/renamed" {
			t.Errorf("AddedInNew = %+v", rep.AddedInNew)
		}
		if reg := rep.Regressions(); len(reg) != 0 {
			t.Errorf("shape drift alone gated: %+v", reg)
		}
	})

	t.Run("foreign suite refuses", func(t *testing.T) {
		nb := fresh()
		nb.Suite = "autopipebench/2"
		if _, err := Compare(old, nb, th); !errors.Is(err, errdefs.ErrBadConfig) {
			t.Errorf("cross-suite compare error = %v, want ErrBadConfig", err)
		}
	})
}

func TestReportFormat(t *testing.T) {
	old := validBaseline()
	data, err := old.Encode()
	if err != nil {
		t.Fatal(err)
	}
	nb, err := ParseBaseline(data)
	if err != nil {
		t.Fatal(err)
	}
	nb.Benchmarks[1].NsPerOp *= 2
	rep, err := Compare(old, nb, DefaultThresholds())
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	rep.Format(&sb)
	out := sb.String()
	if !strings.Contains(out, "REGRESSED: 1 metric(s) past threshold") {
		t.Errorf("Format missing verdict line:\n%s", out)
	}
	if !strings.Contains(out, "✗") || !strings.Contains(out, "nsPerOp") {
		t.Errorf("Format missing regression marker:\n%s", out)
	}
}

// TestRunSuiteSmoke runs the two cheap registry entries for one iteration and
// checks the assembled baseline validates, self-compares clean, and pins the
// no-sink emission path at zero allocations.
func TestRunSuiteSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("suite smoke needs testing.Benchmark")
	}
	setBenchtime(t, "1x")
	base, err := RunSuite("smoke", Options{
		Match: func(name string) bool { return strings.HasPrefix(name, "obs/") },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Benchmarks) != 2 {
		t.Fatalf("suite ran %d entries, want 2 obs entries", len(base.Benchmarks))
	}
	if e := base.Entry("obs/emit_nosink"); e == nil {
		t.Error("obs/emit_nosink missing from baseline")
	} else if e.AllocsPerOp != 0 {
		t.Errorf("emit_nosink allocates %g/op, want 0", e.AllocsPerOp)
	}
	rep, err := Compare(base, base, DefaultThresholds())
	if err != nil {
		t.Fatal(err)
	}
	if reg := rep.Regressions(); len(reg) != 0 {
		t.Errorf("fresh baseline self-compare regressed: %+v", reg)
	}
}

// plannerAllocsPin is planner/plan_gpt2_345m_g8's allocs/op at parallelism
// 1: the whole plan search — Algorithm 1 table, every candidate's
// simulation, master moves, memory check, slicing — plus the observer
// registry's telemetry. The search loop itself allocates only each
// candidate's partition, its key, and its cache entry.
const plannerAllocsPin = 248

// TestPlannerEntryAllocsPinned runs the plan-search entry at parallelism 1,
// where the count is independent of the machine, and fails if a change
// makes it allocate more than the pin.
func TestPlannerEntryAllocsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("the planner entry needs testing.Benchmark")
	}
	if raceEnabled {
		t.Skip("the race detector's instrumentation changes allocation counts")
	}
	setBenchtime(t, "20x")
	base, err := RunSuite("pin", Options{
		Parallelism: 1,
		Match:       func(name string) bool { return name == "planner/plan_gpt2_345m_g8" },
	})
	if err != nil {
		t.Fatal(err)
	}
	e := base.Entry("planner/plan_gpt2_345m_g8")
	if e == nil {
		t.Fatal("planner/plan_gpt2_345m_g8 missing from the suite")
	}
	if e.AllocsPerOp > plannerAllocsPin {
		t.Errorf("planner/plan_gpt2_345m_g8 at parallelism 1: %g allocs/op, pinned at %d", e.AllocsPerOp, plannerAllocsPin)
	}
}

func TestRunSuiteNoMatch(t *testing.T) {
	if _, err := RunSuite("none", Options{Match: func(string) bool { return false }}); err == nil {
		t.Error("RunSuite with empty filter succeeded")
	}
}

// setBenchtime points testing.Benchmark at a short benchtime for the duration
// of the test — the same mechanism cmd/autopipebench uses.
func setBenchtime(t *testing.T, v string) {
	t.Helper()
	f := flag.CommandLine.Lookup("test.benchtime")
	if f == nil {
		t.Fatal("test.benchtime flag not registered")
	}
	prev := f.Value.String()
	if err := f.Value.Set(v); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = f.Value.Set(prev) })
}
