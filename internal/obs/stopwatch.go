package obs

import "time"

// Stopwatch is the sanctioned wall-clock measurement primitive for the
// deterministic packages (sim, core, exec, plan, train). Those
// packages are forbidden from calling time.Now / time.Since directly — the
// root TestSimclock enforces it — because a wall-clock
// read that leaks into a planning or simulation decision silently breaks the
// bit-for-bit reproducibility the paper's results rest on. Elapsed wall time
// is still a legitimate *output* (plan.Spec.SearchTime, the per-depth
// telemetry of paper Fig. 12), so the clock lives here in obs, the one layer
// whose job is telemetry: a Stopwatch can time a search, but nothing about
// it feeds back into what the search decides.
type Stopwatch struct {
	start time.Time
}

// NewStopwatch starts timing now.
func NewStopwatch() Stopwatch {
	return Stopwatch{start: time.Now()}
}

// Elapsed returns the wall time since the stopwatch started.
func (s Stopwatch) Elapsed() time.Duration {
	return time.Since(s.start)
}
