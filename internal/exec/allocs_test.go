//go:build !race

package exec

import (
	"testing"

	"autopipe/internal/obs"
	"autopipe/internal/schedule"
)

// TestSanitizedRunAllocsPinned pins the allocation count of one exec.Run,
// setup included, with a metrics registry attached: validation, the
// dependency graph, the sanitizer's tables (TestMain forces the sanitizer on;
// the sanitized row also sets Config.Sanitize, the production -sanitize
// configuration) and the event loop. The rows take the loop's other branches
// too: fewer micro-batches than stages, sliced forwards with their
// NoSend/AggSend pairs, and interleaved virtual stages. A new allocation on
// any of those paths fails it. Ceilings measured with go1.24 on linux/amd64.
// (The race detector's instrumentation changes allocation counts, so -race
// skips this file.)
func TestSanitizedRunAllocsPinned(t *testing.T) {
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
		allocs   float64
	}{
		{"1f1b_p8_m32", must(schedule.OneFOneB(8, 32)), false, 829},
		{"1f1b_p8_m32_sanitized", must(schedule.OneFOneB(8, 32)), true, 829},
		{"1f1b_p4_m2", must(schedule.OneFOneB(4, 2)), false, 70},
		{"sliced_p8_m32_s7", must(schedule.Sliced(8, 32, 7)), false, 945},
		{"interleaved_p4_m16_v2", must(schedule.Interleaved(4, 16, 2)), false, 444},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := benchCfg(tc.s.VirtStages)
			cfg.Obs = obs.NewRegistry()
			cfg.Sanitize = tc.sanitize
			n := testing.AllocsPerRun(100, func() {
				if _, err := Run(tc.s, cfg); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("%v allocs/run", n)
			if n > tc.allocs {
				t.Errorf("%v allocs/run, pinned at %v", n, tc.allocs)
			}
		})
	}
}
