//go:build !race

package exec

import (
	"testing"

	"autopipe/internal/obs"
	"autopipe/internal/schedule"
)

// sanitizedRunAllocs is the allocation count of one sanitized exec.Run of
// 1F1B p8 m32 with a metrics registry attached, setup included, measured
// with go1.24 on linux/amd64.
const sanitizedRunAllocs = 829

// TestSanitizedRunAllocsPinned pins the one-shot executor in the production
// -sanitize configuration: validation, the dependency graph, the sanitizer's
// tables and the event loop, with the registry attached. A new allocation on
// any of those paths fails it.
// (The race detector's instrumentation changes allocation counts, so -race
// skips this file.)
func TestSanitizedRunAllocsPinned(t *testing.T) {
	s, err := schedule.OneFOneB(8, 32)
	if err != nil {
		t.Fatal(err)
	}
	cfg := benchCfg(8)
	cfg.Obs = obs.NewRegistry()
	cfg.Sanitize = true
	n := testing.AllocsPerRun(100, func() {
		if _, err := Run(s, cfg); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("sanitized Run 1f1b_p8_m32: %v allocs/op", n)
	if n > sanitizedRunAllocs {
		t.Errorf("sanitized Run 1f1b_p8_m32: %v allocs/op, pinned at %d", n, sanitizedRunAllocs)
	}
}
