package fault

import (
	"sync"
	"testing"

	"autopipe/internal/obs"
)

// TestInjectorConcurrentQueries exercises the Injector's documented
// all-methods-safe-for-concurrent-use contract from competing goroutines —
// the executor's launch path and send path hit it from every device at once —
// and checks the stateful budgets stay exact under contention: a count-mode
// msg-drop consumes exactly Count attempts and an OOM fires exactly once, no
// matter how the queries interleave. Run under -race (make race, and at full
// depth whenever this package's suite runs under the detector) it is also the
// data-race check on the Injector's locking.
func TestInjectorConcurrentQueries(t *testing.T) {
	plan := &Plan{
		Name: "race-stress",
		Seed: 7,
		Faults: []Fault{
			{Kind: Straggler, At: 0, Duration: 2, Device: 1, Factor: 2},
			{Kind: LinkDegrade, At: 0, Duration: 2, From: 0, To: 1, Factor: 0.5},
			{Kind: MsgDrop, At: 0, Duration: 2, From: 0, To: 1, Count: 3},
			{Kind: DeviceOOM, At: 0, Duration: 2, Device: 2},
			{Kind: DeviceCrash, At: 1.5, Device: 3},
		},
	}
	if err := plan.Validate(); err != nil {
		t.Fatalf("stress plan invalid: %v", err)
	}
	inj := New(plan, obs.NewRegistry())

	const workers = 8
	const iters = 200
	var wg sync.WaitGroup
	drops := make([]int, workers)
	ooms := make([]int, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				at := float64(i%20) / 10.0
				_ = inj.ComputeScale(i%4, at)
				_ = inj.LinkFactor(0, 1, at)
				_, _, _ = inj.LinkBlocked(0, 1, at)
				if inj.DropAttempt(0, 1, 1.0, uint64(w*iters+i)) {
					drops[w]++
				}
				if inj.OOMAt(2, 1.0) {
					ooms[w]++
				}
				_, _ = inj.Crashed(3, at)
			}
		}(w)
	}
	wg.Wait()

	totalDrops, totalOOMs := 0, 0
	for w := 0; w < workers; w++ {
		totalDrops += drops[w]
		totalOOMs += ooms[w]
	}
	if totalDrops != 3 {
		t.Errorf("count-mode msg-drop consumed %d attempts under contention, want exactly 3", totalDrops)
	}
	if totalOOMs != 1 {
		t.Errorf("oom fired %d times under contention, want exactly once", totalOOMs)
	}
}
