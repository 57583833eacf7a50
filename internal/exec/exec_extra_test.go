package exec

import (
	"errors"
	"strings"
	"testing"

	"autopipe/internal/config"
	"autopipe/internal/errdefs"
	"autopipe/internal/schedule"
)

// TestRunDetectsDeadlock: a corrupted schedule whose stages wait on each
// other must be reported as a typed deadlock, not hang.
func TestRunDetectsDeadlock(t *testing.T) {
	s, _ := schedule.OneFOneB(2, 2)
	// Create a circular wait: stage 0 demands micro-batch 0's backward
	// before it has even sent the forward stage 1 needs to produce it.
	s.Ops[0][0], s.Ops[0][2] = s.Ops[0][2], s.Ops[0][0]
	_, err := Run(s, uniformCfg(2, 1, 2))
	if !errors.Is(err, errdefs.ErrDeadlock) {
		t.Fatalf("corrupted schedule: err = %v, want errdefs.ErrDeadlock", err)
	}
}

// TestRunValidatesScheduleFirst: structural corruption is caught by
// validation before execution.
func TestRunValidatesScheduleFirst(t *testing.T) {
	s, _ := schedule.OneFOneB(2, 2)
	s.Ops[0] = s.Ops[0][:len(s.Ops[0])-1] // drop a backward
	if _, err := Run(s, uniformCfg(2, 1, 2)); err == nil {
		t.Fatal("want validation error for missing op")
	}
}

// TestLinkSerialization: two transfers on the same directed link cannot
// overlap — the second waits for the first's bandwidth slot.
func TestLinkSerialization(t *testing.T) {
	// GPipe stage 0 emits forwards back-to-back; with compute much faster
	// than the link, arrivals at stage 1 are spaced by the transfer time.
	s, _ := schedule.GPipe(2, 3)
	cfg := uniformCfg(2, 0.001, 0.002)
	cfg.CommBytes = 1e9
	cfg.Network = config.Network{Bandwidth: 1e9, Latency: 0} // 1 s per transfer
	r, err := Run(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var starts []float64
	for _, tr := range r.Traces[1] {
		if tr.Op.Kind == schedule.Fwd {
			starts = append(starts, tr.Start)
		}
	}
	if len(starts) != 3 {
		t.Fatalf("%d forwards on stage 1", len(starts))
	}
	for i := 1; i < len(starts); i++ {
		if gap := starts[i] - starts[i-1]; gap < 1.0-1e-9 {
			t.Errorf("forwards %d and %d only %.3f s apart; the 1 s link must serialize them", i-1, i, gap)
		}
	}
}

// TestFullDuplexLinks: forward and backward traffic between the same pair of
// devices ride independent directions and do not serialize against each
// other.
func TestFullDuplexLinks(t *testing.T) {
	s, _ := schedule.OneFOneB(2, 8)
	slow := uniformCfg(2, 1, 1)
	slow.CommBytes = 1e8
	slow.Network = config.Network{Bandwidth: 1e9, Latency: 0} // 0.1 s per hop
	r, err := Run(s, slow)
	if err != nil {
		t.Fatal(err)
	}
	// In steady 1F1B the same-pair fwd and bwd messages alternate every
	// cycle; if directions shared one link the makespan would grow by an
	// extra 0.1 s per micro-batch. Compare against a doubled-bandwidth run:
	// full duplex means halving the per-direction load changes little.
	fast := slow
	fast.Network = config.Network{Bandwidth: 2e9, Latency: 0}
	r2, err := Run(s, fast)
	if err != nil {
		t.Fatal(err)
	}
	if r.IterTime > r2.IterTime*1.15 {
		t.Errorf("directions appear to share a link: %.3f s vs %.3f s at double bandwidth", r.IterTime, r2.IterTime)
	}
}

// TestFaultStragglerSlowsIteration: a straggler — one device computing at
// half speed — becomes the pipeline's bottleneck and stretches the makespan
// well beyond the uniform run's.
func TestFaultStragglerSlowsIteration(t *testing.T) {
	s, _ := schedule.OneFOneB(2, 4)
	cfg := uniformCfg(2, 1, 2)
	clean, err := Run(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.VirtFwd[1] *= 2
	cfg.VirtBwd[1] *= 2
	slow, err := Run(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if slow.IterTime <= clean.IterTime*1.5 {
		t.Errorf("straggler barely slowed: %.3f vs clean %.3f", slow.IterTime, clean.IterTime)
	}
}

// TestFaultLinkDegradeStretchesTransfers: halving link bandwidth doubles
// serialization time for cross-stage messages.
func TestFaultLinkDegradeStretchesTransfers(t *testing.T) {
	s, _ := schedule.OneFOneB(2, 2)
	cfg := uniformCfg(2, 0.001, 0.002)
	cfg.CommBytes = 1e9
	cfg.Network = config.Network{Bandwidth: 1e9, Latency: 0} // 1 s per transfer
	clean, err := Run(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Network.Bandwidth = 0.5e9
	slow, err := Run(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if slow.IterTime < clean.IterTime+0.9 {
		t.Errorf("degraded link: %.3f vs clean %.3f", slow.IterTime, clean.IterTime)
	}
}

// TestStartupZeroForSingleDevice: a 1-stage pipeline has no startup overhead.
func TestStartupZeroForSingleDevice(t *testing.T) {
	s, _ := schedule.OneFOneB(1, 4)
	r, err := Run(s, uniformCfg(1, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if r.Startup != 0 {
		t.Errorf("single-device startup = %v", r.Startup)
	}
}

// TestDeadlockErrorMessage pins the remaining-op accounting in the deadlock
// report: the message names the schedule and says how many ops never ran.
func TestDeadlockErrorMessage(t *testing.T) {
	s, _ := schedule.OneFOneB(2, 2)
	s.Ops[0][0], s.Ops[0][2] = s.Ops[0][2], s.Ops[0][0]
	_, err := Run(s, uniformCfg(2, 1, 2))
	if err == nil {
		t.Fatal("corrupted schedule executed")
	}
	msg := err.Error()
	if !strings.Contains(msg, "deadlocked with") || !strings.Contains(msg, "ops remaining") {
		t.Errorf("error %q lacks the remaining-op count", msg)
	}
	if !strings.Contains(msg, s.Name) {
		t.Errorf("error %q does not name schedule %q", msg, s.Name)
	}
	// The circular wait strikes before anything can run: all 8 ops remain.
	if !strings.Contains(msg, "8 ops remaining") {
		t.Errorf("error %q, want 8 ops remaining", msg)
	}
}

// TestEmptyResultEdges: a zero-value Result must render a placeholder Gantt
// line and zero utilization instead of dividing by a zero makespan.
func TestEmptyResultEdges(t *testing.T) {
	r := &Result{}
	if got := r.Gantt(); got != "(empty trace)\n" {
		t.Errorf("empty Gantt = %q", got)
	}
	if u := r.Utilization(); len(u) != 0 {
		t.Errorf("empty Utilization = %v", u)
	}
	r.Busy = []float64{1, 2}
	for _, u := range r.Utilization() {
		if u != 0 {
			t.Errorf("zero-makespan utilization = %v", r.Utilization())
		}
	}
}
