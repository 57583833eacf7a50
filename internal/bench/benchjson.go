// Package bench is the performance-observability harness behind
// cmd/autopipebench: a curated suite of hot-path benchmarks (plan search,
// the sanitized exec event loop, schedule dependency-graph construction, the
// Slicer, and the obs registry itself) run through testing.Benchmark, a
// canonical BENCH_<label>.json baseline format, and a regression-gating
// comparator with per-metric thresholds.
//
// The paper's headline planner claim is search *speed* (Fig. 12), so the
// repository pins a measured trajectory: BENCH_baseline.json is checked in,
// `autopipebench` refreshes it, and `autopipebench compare` diffs two
// baselines and exits nonzero when a metric degrades past its threshold.
// Baselines parse strictly (json.Decoder.DisallowUnknownFields), and the
// root fixture test parses every checked-in BENCH_*.json the same way it
// parses the schedule and fault-plan goldens.
package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"

	"autopipe/internal/errdefs"
)

// SuiteID identifies the baseline schema plus the suite contract; compare
// refuses to diff baselines from different suite versions, so a schema change
// bumps this and forces a baseline refresh.
const SuiteID = "autopipebench/1"

// Entry is one benchmark's measured result.
type Entry struct {
	// Name identifies the suite entry ("exec/1f1b_p8_m32_sanitized").
	Name string `json:"name"`
	// Iters is the iteration count of the measured run (testing.B.N).
	Iters int `json:"iters"`
	// NsPerOp, AllocsPerOp, and BytesPerOp are the standard Go benchmark
	// metrics, as floats so thresholds compose uniformly.
	NsPerOp     float64 `json:"nsPerOp"`
	AllocsPerOp float64 `json:"allocsPerOp"`
	BytesPerOp  float64 `json:"bytesPerOp"`
	// Custom holds suite-specific metrics pulled from the obs registry after
	// the measured run: cache-hit ratios, pruned-depth counts, executor
	// ops/sec, graph sizes.
	Custom map[string]float64 `json:"custom,omitempty"`
}

// Baseline is the canonical BENCH_<label>.json document.
type Baseline struct {
	// Label names the baseline ("baseline", "ci", "dev").
	Label string `json:"label"`
	// Suite is the schema/suite version tag; always SuiteID when written by
	// this package.
	Suite string `json:"suite"`
	// GoVersion records the toolchain that produced the numbers.
	GoVersion string `json:"goVersion"`
	// NProc is the machine's CPU count (runtime.NumCPU), GOMAXPROCS the
	// scheduler's processor limit, and Parallelism the plan-search worker
	// pool the planner entry ran with. Timings depend on all three;
	// allocation counts are pinned at parallelism 1.
	NProc       int `json:"nproc"`
	GOMAXPROCS  int `json:"gomaxprocs"`
	Parallelism int `json:"parallelism"`
	// Benchmarks holds one entry per suite benchmark, in suite order.
	Benchmarks []Entry `json:"benchmarks"`
}

// ParseBaseline decodes and validates a BENCH_*.json document. Unknown fields
// fail the parse (DisallowUnknownFields: a typo in a checked-in baseline
// must not silently become a missing metric), as do a missing label, a
// foreign suite tag, a missing or non-positive nproc, gomaxprocs or
// parallelism, duplicate or empty entry names, non-positive iteration
// counts, and non-finite or negative measurements.
// Errors wrap errdefs.ErrBadConfig.
func ParseBaseline(data []byte) (*Baseline, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var b Baseline
	if err := dec.Decode(&b); err != nil {
		return nil, fmt.Errorf("%w: bench: malformed baseline: %v", errdefs.ErrBadConfig, err)
	}
	if dec.More() {
		return nil, fmt.Errorf("%w: bench: trailing data after baseline document", errdefs.ErrBadConfig)
	}
	if err := b.Validate(); err != nil {
		return nil, err
	}
	return &b, nil
}

// LoadBaseline reads and parses the baseline at path.
func LoadBaseline(path string) (*Baseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	b, err := ParseBaseline(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return b, nil
}

// Validate reports the first structural problem with the baseline.
func (b *Baseline) Validate() error {
	if b.Label == "" {
		return fmt.Errorf("%w: bench: baseline has no label", errdefs.ErrBadConfig)
	}
	if !strings.HasPrefix(b.Suite, "autopipebench/") {
		return fmt.Errorf("%w: bench: unknown suite tag %q (want %q)", errdefs.ErrBadConfig, b.Suite, SuiteID)
	}
	for field, v := range map[string]int{"nproc": b.NProc, "gomaxprocs": b.GOMAXPROCS, "parallelism": b.Parallelism} {
		if v <= 0 {
			return fmt.Errorf("%w: bench: baseline %q has non-positive %s %d", errdefs.ErrBadConfig, b.Label, field, v)
		}
	}
	if len(b.Benchmarks) == 0 {
		return fmt.Errorf("%w: bench: baseline %q has no benchmarks", errdefs.ErrBadConfig, b.Label)
	}
	seen := make(map[string]bool, len(b.Benchmarks))
	for i, e := range b.Benchmarks {
		if e.Name == "" {
			return fmt.Errorf("%w: bench: entry %d has no name", errdefs.ErrBadConfig, i)
		}
		if seen[e.Name] {
			return fmt.Errorf("%w: bench: duplicate entry %q", errdefs.ErrBadConfig, e.Name)
		}
		seen[e.Name] = true
		if e.Iters <= 0 {
			return fmt.Errorf("%w: bench: entry %q has non-positive iters %d", errdefs.ErrBadConfig, e.Name, e.Iters)
		}
		for metric, v := range map[string]float64{"nsPerOp": e.NsPerOp, "allocsPerOp": e.AllocsPerOp, "bytesPerOp": e.BytesPerOp} {
			if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("%w: bench: entry %q has invalid %s %g", errdefs.ErrBadConfig, e.Name, metric, v)
			}
		}
		for name, v := range e.Custom {
			if name == "" {
				return fmt.Errorf("%w: bench: entry %q has an unnamed custom metric", errdefs.ErrBadConfig, e.Name)
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("%w: bench: entry %q custom metric %q is not finite", errdefs.ErrBadConfig, e.Name, name)
			}
		}
	}
	return nil
}

// Entry returns the named entry, or nil.
func (b *Baseline) Entry(name string) *Entry {
	for i := range b.Benchmarks {
		if b.Benchmarks[i].Name == name {
			return &b.Benchmarks[i]
		}
	}
	return nil
}

// Encode renders the baseline as indented JSON with a trailing newline — the
// canonical on-disk form of BENCH_<label>.json.
func (b *Baseline) Encode() ([]byte, error) {
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("bench: encode baseline: %w", err)
	}
	return append(data, '\n'), nil
}

// WriteFile writes the canonical encoding to path.
func (b *Baseline) WriteFile(path string) error {
	data, err := b.Encode()
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("bench: %w", err)
	}
	return nil
}
