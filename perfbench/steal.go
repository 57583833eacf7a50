package main

import (
	"bytes"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"
)

// stealEvery is how often the steal clock samples the host counter.
const stealEvery = 50 * time.Millisecond

// stealClock samples the kernel's cumulative steal time: CPU time the
// hypervisor gave to other guests while the virtual machine's vCPUs were
// ready to run. On a shared host it varies from run to run and inflates every
// wall-clock figure alike; the benchmark subtracts it so that its latencies
// measure the program, not the neighbours. Without /proc/stat it reads zero
// and nothing is subtracted.
type stealClock struct {
	base  time.Time
	ncpu  float64
	mu    sync.Mutex
	at    []time.Duration
	steal []time.Duration // cumulative, summed over all CPUs
	stop  chan struct{}
	done  chan struct{}
}

func startStealClock(base time.Time, ncpu int) *stealClock {
	c := &stealClock{base: base, ncpu: float64(ncpu), stop: make(chan struct{}), done: make(chan struct{})}
	c.sample()
	go func() {
		defer close(c.done)
		t := time.NewTicker(stealEvery)
		defer t.Stop()
		for {
			select {
			case <-c.stop:
				c.sample()
				return
			case <-t.C:
				c.sample()
			}
		}
	}()
	return c
}

// close stops sampling and waits for the sampler to exit.
func (c *stealClock) close() {
	close(c.stop)
	<-c.done
}

func (c *stealClock) sample() {
	s := readSteal()
	now := time.Since(c.base)
	c.mu.Lock()
	c.at = append(c.at, now)
	c.steal = append(c.steal, s)
	c.mu.Unlock()
}

// readSteal returns the cumulative steal time of all CPUs from the
// aggregate line of /proc/stat, whose eighth value counts 1/100 s ticks.
func readSteal() time.Duration {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := bytes.Cut(data, []byte("\n"))
	f := bytes.Fields(line)
	if len(f) < 9 || string(f[0]) != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(string(f[8]), 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * 10 * time.Millisecond
}

// cum interpolates the cumulative steal at offset t.
func (c *stealClock) cum(t time.Duration) time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return interpolate(c.at, c.steal, t)
}

func interpolate(at, v []time.Duration, t time.Duration) time.Duration {
	n := len(at)
	if n == 0 {
		return 0
	}
	i := sort.Search(n, func(i int) bool { return at[i] >= t })
	switch {
	case i == 0:
		return v[0]
	case i == n:
		return v[n-1]
	}
	span := at[i] - at[i-1]
	if span <= 0 {
		return v[i]
	}
	frac := float64(t-at[i-1]) / float64(span)
	return v[i-1] + time.Duration(frac*float64(v[i]-v[i-1]))
}

// stolen is the wall time the interval [from, to) lost to steal: the steal
// in it, averaged over the CPUs.
func (c *stealClock) stolen(from, to time.Duration) time.Duration {
	if c == nil || to <= from {
		return 0
	}
	d := time.Duration(float64(c.cum(to)-c.cum(from)) / c.ncpu)
	return min(max(d, 0), to-from)
}

// adjust subtracts the stolen time from each operation's latency.
func (c *stealClock) adjust(ts []timing) []timing {
	out := make([]timing, len(ts))
	for i, t := range ts {
		s := c.stolen(t.Due, t.End)
		out[i] = t
		out[i].End -= s
	}
	return out
}
