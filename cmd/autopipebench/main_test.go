package main

import (
	"io"
	"path/filepath"
	"strings"
	"testing"

	"autopipe/internal/bench"
)

func writeBaseline(t *testing.T, dir, name string, mutate func(*bench.Baseline)) string {
	t.Helper()
	b := &bench.Baseline{
		Label:       strings.TrimSuffix(name, ".json"),
		Suite:       bench.SuiteID,
		GoVersion:   "go1.22",
		NProc:       2,
		GOMAXPROCS:  2,
		Parallelism: 1,
		Benchmarks: []bench.Entry{
			{Name: "planner/plan_gpt2_345m_g8", Iters: 10, NsPerOp: 2e6, AllocsPerOp: 900, BytesPerOp: 65536,
				Custom: map[string]float64{"cache_hit_ratio": 0.8}},
			{Name: "obs/emit_nosink", Iters: 1000, NsPerOp: 150, AllocsPerOp: 0, BytesPerOp: 0},
		},
	}
	if mutate != nil {
		mutate(b)
	}
	path := filepath.Join(dir, name)
	if err := b.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCompareExitCodes pins the acceptance criterion: compare exits 0 against
// an identical baseline and nonzero when a metric degraded past threshold.
func TestCompareExitCodes(t *testing.T) {
	dir := t.TempDir()
	base := writeBaseline(t, dir, "BENCH_baseline.json", nil)
	same := writeBaseline(t, dir, "BENCH_same.json", nil)
	slow := writeBaseline(t, dir, "BENCH_slow.json", func(b *bench.Baseline) {
		b.Benchmarks[0].NsPerOp *= 2
	})

	var out strings.Builder
	if code := run([]string{"compare", base, same}, &out, io.Discard); code != 0 {
		t.Errorf("self-compare exit = %d, want 0\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "OK: no metric past threshold") {
		t.Errorf("self-compare report missing OK verdict:\n%s", out.String())
	}

	out.Reset()
	if code := run([]string{"compare", base, slow}, &out, io.Discard); code != 1 {
		t.Errorf("degraded compare exit = %d, want 1\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "REGRESSED") {
		t.Errorf("degraded report missing REGRESSED verdict:\n%s", out.String())
	}

	out.Reset()
	if code := run([]string{"compare", "-report-only", base, slow}, &out, io.Discard); code != 0 {
		t.Errorf("-report-only exit = %d, want 0", code)
	}
}

func TestCompareUsageErrors(t *testing.T) {
	dir := t.TempDir()
	base := writeBaseline(t, dir, "BENCH_baseline.json", nil)
	cases := [][]string{
		{"compare"},
		{"compare", base},
		{"compare", base, filepath.Join(dir, "missing.json")},
		{"compare", "-definitely-not-a-flag", base, base},
	}
	for _, args := range cases {
		if code := run(args, io.Discard, io.Discard); code != 2 {
			t.Errorf("run(%q) exit = %d, want 2", args, code)
		}
	}
}

func TestRunSuiteRejectsStrayArgs(t *testing.T) {
	if code := run([]string{"BENCH_a.json", "BENCH_b.json"}, io.Discard, io.Discard); code != 2 {
		t.Errorf("stray-argument exit = %d, want 2", code)
	}
}

// TestRunModeSmoke exercises the full run path — suite, baseline file, then
// the written file self-compared through the compare path — restricted to the
// cheap obs entries at one iteration.
func TestRunModeSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs testing.Benchmark")
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_smoke.json")
	var out strings.Builder
	code := run([]string{"-label", "smoke", "-o", path, "-benchtime", "1x", "-match", "obs/"}, &out, io.Discard)
	if code != 0 {
		t.Fatalf("run exit = %d\n%s", code, out.String())
	}
	got, err := bench.LoadBaseline(path)
	if err != nil {
		t.Fatalf("written baseline does not parse: %v", err)
	}
	if got.Label != "smoke" || len(got.Benchmarks) != 2 {
		t.Errorf("baseline = label %q, %d benchmarks; want smoke with 2", got.Label, len(got.Benchmarks))
	}
	if code := run([]string{"compare", path, path}, io.Discard, io.Discard); code != 0 {
		t.Errorf("fresh baseline self-compare exit = %d, want 0", code)
	}
}
