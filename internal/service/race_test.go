package service

import (
	"sync"
	"testing"
	"time"
)

// TestTokenBucketConcurrentTake hammers the admission-control bucket from
// competing goroutines and checks conservation: with accrual frozen (a fixed
// injected clock), the number of admitted requests can never exceed the
// burst capacity, however the takes interleave. Run under -race (make
// race-wide, CI race-matrix) this doubles as the data-race check on the
// bucket's mutex discipline.
func TestTokenBucketConcurrentTake(t *testing.T) {
	b := newTokenBucket(100, 32)
	frozen := time.Now()
	b.now = func() time.Time { return frozen }
	b.last = frozen // no accrual between construction and the frozen clock

	const workers = 16
	const attempts = 50
	var wg sync.WaitGroup
	admitted := make([]int, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < attempts; i++ {
				if ok, wait := b.take(); ok {
					admitted[w]++
				} else if wait <= 0 {
					t.Errorf("rejected take returned non-positive wait %v", wait)
				}
			}
		}(w)
	}
	wg.Wait()

	total := 0
	for _, n := range admitted {
		total += n
	}
	if total != 32 {
		t.Fatalf("admitted %d requests from a frozen 32-token bucket, want exactly 32", total)
	}
}
