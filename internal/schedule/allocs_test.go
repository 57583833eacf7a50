//go:build !race

package schedule

import "testing"

// depGraphAllocs is the allocation count of Dependencies on 1F1B p16 m64
// (2048 ops), measured with go1.24 on linux/amd64.
const depGraphAllocs = 2958

// TestDepGraphAllocsPinned pins the allocations of building a schedule's
// dependency graph: the cost every sanitized execution pays per schedule.
// (The race detector's instrumentation changes allocation counts, so -race
// skips this file.)
func TestDepGraphAllocsPinned(t *testing.T) {
	s, err := OneFOneB(16, 64)
	if err != nil {
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(100, func() {
		if _, err := s.Dependencies(); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Dependencies 1f1b_p16_m64: %v allocs/op", n)
	if n > depGraphAllocs {
		t.Errorf("Dependencies 1f1b_p16_m64: %v allocs/op, pinned at %d", n, depGraphAllocs)
	}
}
