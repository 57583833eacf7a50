// Package cliutil provides the flag handling shared by the repository's
// commands: autopipe, pipesim, experiments, and autopiped all register
// their common flags here, so -timeout and the profiling flags mean the
// same thing everywhere. The daemon's flags (-addr and the
// -rate/-burst/-queue-wait admission controls) live here too; it has no
// chaos-injection flag. The planner has no width flag: each search is
// serial. Parsed values resolve into a planning context or daemon
// configuration.
package cliutil

import (
	"context"
	"flag"
	"time"
)

// PlannerFlags holds the parsed values of the shared planner flags.
type PlannerFlags struct {
	// Timeout bounds the whole planning run; 0 means no limit.
	Timeout time.Duration
}

// RegisterPlanner installs the shared planner flags on fs (before
// fs.Parse). Pass flag.CommandLine for the process-wide set.
func RegisterPlanner(fs *flag.FlagSet) *PlannerFlags {
	pf := &PlannerFlags{}
	fs.DurationVar(&pf.Timeout, "timeout", 0, "abort planning after this duration, e.g. 30s (0 = no limit)")
	return pf
}

// Context returns the planning context implied by -timeout. Always call the
// cancel function when planning finishes.
func (pf *PlannerFlags) Context() (context.Context, context.CancelFunc) {
	if pf.Timeout > 0 {
		return context.WithTimeout(context.Background(), pf.Timeout)
	}
	return context.WithCancel(context.Background())
}

// ServiceFlags holds the parsed values of the autopiped daemon's flags.
type ServiceFlags struct {
	// Addr is the listen (or target) address for the HTTP API.
	Addr string
	// Rate is the steady-state admission rate in submits/sec; 0 disables the
	// rate limiter.
	Rate float64
	// Burst is the rate-limiter burst size; 0 defaults to max(1, Rate).
	Burst int
	// QueueWait bounds how long an admitted submit may wait for a queue slot
	// before being shed with 503; 0 sheds immediately on a full queue.
	QueueWait time.Duration
}

// RegisterService installs the shared daemon flags on fs (before fs.Parse).
func RegisterService(fs *flag.FlagSet) *ServiceFlags {
	sf := &ServiceFlags{}
	fs.StringVar(&sf.Addr, "addr", "127.0.0.1:7180", "HTTP listen address for the planning API")
	fs.Float64Var(&sf.Rate, "rate", 0, "admission rate limit in submits/sec, rejected with 429 + Retry-After (0 = unlimited)")
	fs.IntVar(&sf.Burst, "burst", 0, "admission burst size above -rate (0 = max(1, rate))")
	fs.DurationVar(&sf.QueueWait, "queue-wait", 0, "how long a submit may wait for a queue slot before 503 + Retry-After (0 = shed immediately)")
	return sf
}
