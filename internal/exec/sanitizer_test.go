package exec

import (
	"errors"
	"os"
	"strings"
	"testing"

	"autopipe/internal/config"
	"autopipe/internal/errdefs"
	"autopipe/internal/schedule"
)

// TestMain force-enables the runtime sanitizer for every execution in this
// package: each Run in every test is validated op-by-op against the schedule
// dependency model, so an executor regression that still produces a
// plausible-looking makespan fails loudly here.
func TestMain(m *testing.M) {
	testSanitize = true
	os.Exit(m.Run())
}

// sanCfg is a non-degenerate config (real payloads, latency, overhead,
// jitter) so every sanitizer bound is exercised with non-zero slack.
func sanCfg(p int) Config {
	cfg := uniformCfg(p, 1e-3, 2e-3)
	cfg.CommBytes = 1 << 20
	cfg.Network = config.Network{Bandwidth: 1e10, Latency: 5e-6}
	cfg.KernelOverhead = 1e-6
	cfg.Jitter = 0.02
	cfg.Seed = 7
	return cfg
}

// TestSanitizerAcceptsCleanRuns: the live checker and the replay API both
// pass every schedule family the executor supports.
func TestSanitizerAcceptsCleanRuns(t *testing.T) {
	build := []struct {
		name string
		mk   func() (*schedule.Schedule, error)
	}{
		{"1f1b", func() (*schedule.Schedule, error) { return schedule.OneFOneB(4, 8) }},
		{"gpipe", func() (*schedule.Schedule, error) { return schedule.GPipe(3, 6) }},
		{"sliced", func() (*schedule.Schedule, error) { return schedule.Sliced(4, 8, 2) }},
		{"interleaved", func() (*schedule.Schedule, error) { return schedule.Interleaved(2, 4, 2) }},
	}
	for _, b := range build {
		t.Run(b.name, func(t *testing.T) {
			s, err := b.mk()
			if err != nil {
				t.Fatal(err)
			}
			cfg := sanCfg(s.VirtStages)
			cfg.Sanitize = true
			r, err := Run(s, cfg)
			if err != nil {
				t.Fatalf("sanitized run: %v", err)
			}
			if err := sanitizeResult(s, cfg, r); err != nil {
				t.Fatalf("clean trace replay: %v", err)
			}
		})
	}
}

// TestSanitizeResultForgedDependency plants the canonical happens-before
// violation: a downstream forward's start is pulled before its upstream
// producer's compute completes. The replay must reject the trace with
// errdefs.ErrInternal and name the offending op chain.
func TestSanitizeResultForgedDependency(t *testing.T) {
	s, err := schedule.OneFOneB(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sanCfg(4)
	r, err := Run(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Device 1's first forward consumes device 0's first forward output.
	// Forge it to start before that producer finished computing.
	forged := r.Traces[1][0]
	forged.Start = r.Traces[0][0].End / 2
	forged.End = forged.Start + (r.Traces[1][0].End - r.Traces[1][0].Start)
	r.Traces[1][0] = forged

	err = sanitizeResult(s, cfg, r)
	if !errors.Is(err, errdefs.ErrInternal) {
		t.Fatalf("forged dependency: err = %v, want errdefs.ErrInternal", err)
	}
	if msg := err.Error(); !strings.Contains(msg, "<-") && !strings.Contains(msg, "before") {
		t.Errorf("violation %q does not describe the offending op chain", msg)
	}
}

// TestSanitizeResultForgedLinkOverlap: two messages occupying one link
// direction at once must be rejected.
func TestSanitizeResultForgedLinkOverlap(t *testing.T) {
	s, err := schedule.GPipe(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sanCfg(2)
	cfg.CommBytes = 1 << 24 // long serialization so overlap forgery is unambiguous
	r, err := Run(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Find the second cross-device transfer on the 0->1 link and slide its
	// Start into the first transfer's serialization window.
	n := 0
	for i := range r.Msgs {
		m := &r.Msgs[i]
		if m.From == 0 && m.To == 1 {
			if n++; n == 2 {
				shift := m.Start - r.Msgs[i-1].Start - (r.Msgs[i-1].Free-r.Msgs[i-1].Start)/2
				m.Start -= shift
				m.Ready = m.Start
				m.Free -= shift
				m.Arrive -= shift
				break
			}
		}
	}
	if n != 2 {
		t.Fatal("expected at least two 0->1 transfers")
	}
	err = sanitizeResult(s, cfg, r)
	if !errors.Is(err, errdefs.ErrInternal) {
		t.Fatalf("overlapping link transfers: err = %v, want errdefs.ErrInternal", err)
	}
	if !strings.Contains(err.Error(), "link") {
		t.Errorf("violation %q does not mention the link", err)
	}
}

// TestSanitizeResultForgedLatency: an arrival that beats the configured link
// latency floor is physically impossible and must be rejected.
func TestSanitizeResultForgedLatency(t *testing.T) {
	s, err := schedule.OneFOneB(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sanCfg(2)
	cfg.Network.Latency = 1e-3
	r, err := Run(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range r.Msgs {
		if r.Msgs[i].From != r.Msgs[i].To {
			r.Msgs[i].Arrive = r.Msgs[i].Free // zero-latency arrival
			break
		}
	}
	if err := sanitizeResult(s, cfg, r); !errors.Is(err, errdefs.ErrInternal) {
		t.Fatalf("sub-latency arrival: err = %v, want errdefs.ErrInternal", err)
	}
}

// TestSanitizeResultForgedFloors: an op that finishes faster than its stage
// time, or a transfer that serializes its payload faster than the link
// bandwidth allows, beats a physical floor and must be rejected.
func TestSanitizeResultForgedFloors(t *testing.T) {
	for _, tc := range []struct {
		name, floor string
		forge       func(r *Result)
	}{
		{"op below compute floor", "compute floor", func(r *Result) {
			tr := &r.Traces[0][0]
			tr.End = tr.Start + (tr.End-tr.Start)/2
		}},
		{"transfer below capacity floor", "capacity floor", func(r *Result) {
			for i := range r.Msgs {
				if m := &r.Msgs[i]; m.From != m.To {
					m.Free = m.Start // zero serialization time
					return
				}
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := schedule.OneFOneB(2, 2)
			if err != nil {
				t.Fatal(err)
			}
			cfg := sanCfg(2)
			r, err := Run(s, cfg)
			if err != nil {
				t.Fatal(err)
			}
			tc.forge(r)
			err = sanitizeResult(s, cfg, r)
			if !errors.Is(err, errdefs.ErrInternal) {
				t.Fatalf("err = %v, want errdefs.ErrInternal", err)
			}
			if !strings.Contains(err.Error(), tc.floor) {
				t.Errorf("violation %q does not name the %s", err, tc.floor)
			}
		})
	}
}

// TestSanitizerActiveUnderFaults: a straggler device (three times the stage
// time) and a degraded link (a quarter of the bandwidth) stretch ops and
// transfers well past the uniform case; the sanitizer's compute and capacity
// floors, which always apply, must accept the slow run live and on replay.
func TestSanitizerActiveUnderFaults(t *testing.T) {
	s, err := schedule.Sliced(4, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sanCfg(4)
	cfg.Sanitize = true
	cfg.VirtFwd[2] *= 3
	cfg.VirtBwd[2] *= 3
	cfg.Network.Bandwidth *= 0.25
	r, err := Run(s, cfg)
	if err != nil {
		t.Fatalf("sanitized run with a straggler and a degraded link: %v", err)
	}
	if err := sanitizeResult(s, cfg, r); err != nil {
		t.Fatalf("replay of the same run: %v", err)
	}
}

// TestSanitizeResultForgedIssueOrder: a trace whose device executes ops in a
// different order than the schedule issues them is rejected.
func TestSanitizeResultForgedIssueOrder(t *testing.T) {
	s, err := schedule.OneFOneB(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sanCfg(2)
	r, err := Run(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.Traces[0][0], r.Traces[0][1] = r.Traces[0][1], r.Traces[0][0]
	if err := sanitizeResult(s, cfg, r); !errors.Is(err, errdefs.ErrInternal) {
		t.Fatalf("swapped issue order: err = %v, want errdefs.ErrInternal", err)
	}
}

// TestSanitizeResultTruncatedTrace: a trace missing ops fails the
// end-of-iteration completeness check.
func TestSanitizeResultTruncatedTrace(t *testing.T) {
	s, err := schedule.OneFOneB(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sanCfg(2)
	r, err := Run(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.Traces[1] = r.Traces[1][:len(r.Traces[1])-1]
	err = sanitizeResult(s, cfg, r)
	if !errors.Is(err, errdefs.ErrInternal) {
		t.Fatalf("truncated trace: err = %v, want errdefs.ErrInternal", err)
	}
	if msg := err.Error(); !strings.Contains(msg, "never executed") && !strings.Contains(msg, "never completes") {
		t.Errorf("violation %q does not report the missing op", msg)
	}
}

// sanitizeResult replays a finished execution through the same happens-before
// checks Run applies live, so a deliberately tampered Result can be audited
// after the fact. Ops are replayed in dependency order — the order the event
// loop must have executed them in — then every transfer in recorded order,
// then the end-of-iteration invariants. A clean trace returns nil; any
// violation wraps errdefs.ErrInternal.
func sanitizeResult(s *schedule.Schedule, cfg Config, r *Result) error {
	z, err := newSanitizer(s, cfg)
	if err != nil {
		return err
	}
	if len(r.Traces) != s.Devices {
		return z.violation("result has %d device traces, schedule has %d devices", len(r.Traces), s.Devices)
	}
	remaining := 0
	for _, traces := range r.Traces {
		remaining += len(traces)
	}
	for remaining > 0 {
		progressed := false
		for d := range r.Traces {
			for z.nextIdx[d] < len(r.Traces[d]) && z.ready(d, z.nextIdx[d]) {
				if err := z.checkOp(r.Traces[d][z.nextIdx[d]]); err != nil {
					return err
				}
				remaining--
				progressed = true
			}
		}
		if !progressed {
			for d := range r.Traces {
				if i := z.nextIdx[d]; i < len(r.Traces[d]) {
					return z.violation("replay stuck: %v (device %d) waits on a dependency the trace never completes",
						r.Traces[d][i].Op, d)
				}
			}
			break
		}
	}
	for _, m := range r.Msgs {
		if err := z.checkMsg(m); err != nil {
			return err
		}
	}
	return z.finish()
}

// ready reports whether every dependency of device d's op i has been replayed.
func (z *Sanitizer) ready(d, i int) bool {
	if i >= len(z.s.Ops[d]) {
		return true // out-of-range traces fall through to checkOp's report
	}
	for _, p := range z.deps.Preds(z.deps.ID(schedule.OpRef{Device: d, Index: i})) {
		if !z.seen[p] {
			return false
		}
	}
	return true
}
