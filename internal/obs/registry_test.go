package obs

import (
	"testing"
)

func TestHasSinkTracksSetSink(t *testing.T) {
	r := NewRegistry()
	if r.HasSink() {
		t.Error("new registry reports a sink")
	}
	r.SetSink(&MemorySink{})
	if !r.HasSink() {
		t.Error("HasSink false after SetSink")
	}
	r.SetSink(nil)
	if r.HasSink() {
		t.Error("HasSink true after SetSink(nil)")
	}
}

// TestEmitNoSinkAllocsNothing pins the no-sink emission cost at zero
// allocations — the property that lets exec, the planner engine, and the
// driver leave telemetry calls unconditionally in their hot loops.
func TestEmitNoSinkAllocsNothing(t *testing.T) {
	r := NewRegistry()
	fields := Fields{"k": 1}
	if n := testing.AllocsPerRun(100, func() { r.Emit("ev", fields) }); n != 0 {
		t.Errorf("Emit with no sink allocates %.0f objects per call, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { r.Emit("ev", nil) }); n != 0 {
		t.Errorf("Emit(nil fields) with no sink allocates %.0f objects per call, want 0", n)
	}
}

// TestSpanEndNoSinkSkipsEventAlloc verifies Span.End builds no event payload
// when no sink is installed: the only post-warmup cost is the histogram name
// concatenation, never a Fields map or Event value.
func TestSpanEndNoSinkSkipsEventAlloc(t *testing.T) {
	r := NewRegistry()
	r.Histogram("op.seconds") // pre-create so End's lookup cannot allocate the map entry
	n := testing.AllocsPerRun(100, func() {
		r.StartSpan("op").End()
	})
	// One alloc for the Span, one for the "op"+".seconds" concatenation; the
	// Fields map and Event copy (3+ more) must not appear.
	if n > 2 {
		t.Errorf("Span.End with no sink allocates %.0f objects per call, want <= 2", n)
	}
}
