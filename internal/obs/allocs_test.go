//go:build !race

package obs

import "testing"

// TestRegistryUpdateAllocsPinned pins the registry's update path at zero
// allocations: one counter bump plus one histogram observation, the cost
// every exec.Run and planner search pays per recorded event. (The race
// detector's instrumentation changes allocation counts, so -race skips this
// file.)
func TestRegistryUpdateAllocsPinned(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("bench.ops")
	h := r.Histogram("bench.seconds")
	i := 0
	n := testing.AllocsPerRun(1000, func() {
		c.Inc()
		h.Observe(float64(i&1023) * 1e-6)
		i++
	})
	if n != 0 {
		t.Errorf("Counter.Inc + Histogram.Observe: %v allocs/op, want 0", n)
	}
}
