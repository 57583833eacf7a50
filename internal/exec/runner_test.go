package exec

import (
	"testing"

	"autopipe/internal/obs"
	"autopipe/internal/schedule"
)

// TestRunnerReuseAllocationFree pins the steady-state Runner at zero
// allocations per run on inputs that take the event loop's other branches:
// fewer micro-batches than stages, sliced forwards with their NoSend/AggSend
// pairs, and interleaved virtual stages. The sanitizer is on (TestMain forces
// it) and a sinkless registry is attached. The sanitized case also sets
// Config.Sanitize, the production -sanitize configuration.
func TestRunnerReuseAllocationFree(t *testing.T) {
	must := func(s *schedule.Schedule, err error) *schedule.Schedule {
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	for _, tc := range []struct {
		name     string
		s        *schedule.Schedule
		sanitize bool
	}{
		{"1f1b_p8_m32", must(schedule.OneFOneB(8, 32)), false},
		{"1f1b_p8_m32_sanitized", must(schedule.OneFOneB(8, 32)), true},
		{"1f1b_p4_m2", must(schedule.OneFOneB(4, 2)), false},
		{"sliced_p8_m32_s7", must(schedule.Sliced(8, 32, 7)), false},
		{"interleaved_p4_m16_v2", must(schedule.Interleaved(4, 16, 2)), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := benchCfg(tc.s.VirtStages)
			cfg.Obs = obs.NewRegistry()
			cfg.Sanitize = tc.sanitize
			r := NewRunner()
			if _, err := r.Run(tc.s, cfg); err != nil {
				t.Fatal(err)
			}
			if n := testing.AllocsPerRun(100, func() {
				if _, err := r.Run(tc.s, cfg); err != nil {
					t.Fatal(err)
				}
			}); n != 0 {
				t.Errorf("reused Runner: %v allocs/run, want 0", n)
			}
		})
	}
}
