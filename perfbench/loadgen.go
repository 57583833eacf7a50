package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// closedLoop runs callers goroutines that each send op(i) back to back, with
// request indices taken in order from a shared counter, until stop(i, now)
// is true for the index a caller just took. Times are offsets from base. A
// caller's Due is when it became ready to send, so Late is the generator's
// own overhead between requests. op reports whether the request succeeded.
func closedLoop(callers int, base time.Time, stop func(i int, now time.Duration) bool, op func(i int) bool) []timing {
	type rec struct {
		i int
		t timing
	}
	var next atomic.Int64
	var mu sync.Mutex
	var all []rec
	var wg sync.WaitGroup
	wg.Add(callers)
	for c := 0; c < callers; c++ {
		go func() {
			defer wg.Done()
			var mine []rec
			for {
				ready := time.Since(base)
				i := int(next.Add(1) - 1)
				if stop(i, ready) {
					break
				}
				t := timing{Due: ready, Start: time.Since(base)}
				ok := op(i)
				t.End = time.Since(base)
				t.Failed = !ok
				mine = append(mine, rec{i, t})
			}
			mu.Lock()
			all = append(all, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	sort.Slice(all, func(a, b int) bool { return all[a].i < all[b].i })
	out := make([]timing, len(all))
	for k, r := range all {
		out[k] = r.t
	}
	return out
}

// openLoop sends request i at base+due[i] from at most senders goroutines,
// whatever the state of earlier requests. A request whose senders are all
// busy waits for one, and that wait counts both in its lateness and in its
// latency, which runs from the due time.
func openLoop(senders int, base time.Time, due []time.Duration, op func(i int) bool) []timing {
	out := make([]timing, len(due))
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(senders)
	for s := 0; s < senders; s++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(due) {
					return
				}
				waitUntil(base.Add(due[i]))
				t := timing{Due: due[i], Start: time.Since(base)}
				ok := op(i)
				t.End = time.Since(base)
				t.Failed = !ok
				out[i] = t
			}
		}()
	}
	wg.Wait()
	return out
}

// sleepMargin is how early waitUntil stops using a Go timer. Go timers wake
// on the runtime's poller, up to a millisecond late, so a plain sleep would
// make the generator measure timer slack. The last stretch is a nanosleep
// system call: the kernel's high-resolution timer ends it within tens of
// microseconds, and the runtime hands the sleeping thread's processor to
// other goroutines meanwhile. A yield loop would instead keep the processor
// busy and delay the network poller that the daemon's connections wait on.
const sleepMargin = 2 * time.Millisecond

func waitUntil(t time.Time) {
	if d := time.Until(t) - sleepMargin; d > 0 {
		time.Sleep(d)
	}
	if d := time.Until(t); d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // an interrupted sleep only makes the send early by the rest
	}
}
