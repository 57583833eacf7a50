package obs

import (
	"sync"
	"testing"
)

// countingSink is a minimal concurrency-safe sink for the stress test.
type countingSink struct {
	mu sync.Mutex
	n  int
}

func (s *countingSink) Emit(Event) {
	s.mu.Lock()
	s.n++
	s.mu.Unlock()
}

// TestRegistryConcurrentStress drives every registry entry point that the
// service and exec paths hit concurrently — metric updates, the sinkless
// Emit fast path, SetSink toggling mid-traffic, Snapshot, and Reset — from
// competing goroutines. It asserts nothing beyond termination and a sane
// final snapshot: its job is to give the race detector (make race-wide, CI
// race-matrix) real interleavings over the registry's atomic fast path and
// mutex slow path.
func TestRegistryConcurrentStress(t *testing.T) {
	r := NewRegistry()
	sink := &countingSink{}
	const (
		workers = 8
		iters   = 400
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := r.Counter("stress.count")
			g := r.Gauge("stress.gauge")
			h := r.Histogram("stress.hist")
			for i := 0; i < iters; i++ {
				c.Inc()
				g.Set(float64(i))
				h.Observe(float64(i % 17))
				r.Emit("stress.event", Fields{"worker": w, "i": i})
				switch i % 100 {
				case 10:
					r.SetSink(sink)
				case 60:
					r.SetSink(nil)
				case 99:
					_ = r.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()

	if got := r.Counter("stress.count").Value(); got != workers*iters {
		t.Fatalf("counter = %v, want %d", got, workers*iters)
	}
	snap := r.Snapshot()
	if len(snap.Counters) == 0 {
		t.Fatal("snapshot lost the stress counter")
	}

	// Reset racing with updates must also be clean; final state after the
	// last Reset-free writes is unasserted by design (ordering is free).
	var wg2 sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg2.Add(1)
		go func() {
			defer wg2.Done()
			for i := 0; i < iters; i++ {
				r.Counter("stress.count").Inc()
				if i%200 == 0 {
					r.Reset()
				}
			}
		}()
	}
	wg2.Wait()
}
