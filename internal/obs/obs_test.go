package obs

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ops")
	c.Inc()
	c.Add(2)
	c.Add(-5) // ignored: counters are monotone
	if got := c.Value(); got != 3 {
		t.Errorf("counter = %v, want 3", got)
	}
	if r.Counter("ops") != c {
		t.Error("Counter did not return the same instance")
	}
	g := r.Gauge("depth")
	g.Set(4)
	g.Set(8)
	if got := g.Value(); got != 8 {
		t.Errorf("gauge = %v, want 8", got)
	}
}

func TestHistogramStats(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat")
	for _, v := range []float64{1, 2, 3, 4} {
		h.Observe(v)
	}
	st := h.Stat()
	if st.Count != 4 || st.Sum != 10 || st.Min != 1 || st.Max != 4 {
		t.Errorf("bad stat %+v", st)
	}
	if st.Mean != 2.5 {
		t.Errorf("mean = %v, want 2.5", st.Mean)
	}
	if st.P50 < st.Min || st.P50 > st.Max || st.P99 < st.P50 {
		t.Errorf("quantiles out of order: %+v", st)
	}
	// Zero and negative observations land in the smallest bucket without
	// panicking.
	h.Observe(0)
	h.Observe(-1)
	if got := h.Stat().Min; got != -1 {
		t.Errorf("min = %v, want -1", got)
	}
}

func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("n").Inc()
				r.Histogram("h").Observe(1)
				r.Gauge("g").Set(float64(j))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("n").Value(); got != 8000 {
		t.Errorf("counter = %v, want 8000", got)
	}
	if got := r.Histogram("h").Stat().Count; got != 8000 {
		t.Errorf("histogram count = %v, want 8000", got)
	}
}

func TestSnapshotEncoders(t *testing.T) {
	r := NewRegistry()
	r.Counter("a.ops").Add(7)
	r.Gauge("b.depth").Set(4)
	r.Histogram("c.lat").Observe(0.5)
	snap := r.Snapshot()

	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var round Snapshot
	if err := json.Unmarshal(data, &round); err != nil {
		t.Fatal(err)
	}
	if round.Counters["a.ops"] != 7 || round.Gauges["b.depth"] != 4 || round.Histograms["c.lat"].Count != 1 {
		t.Errorf("round-trip mismatch: %+v", round)
	}

	text := snap.String()
	for _, want := range []string{"counter a.ops 7", "gauge b.depth 4", "histogram c.lat count=1"} {
		if !strings.Contains(text, want) {
			t.Errorf("text encoding missing %q:\n%s", want, text)
		}
	}
}

// TestSpanAndEvents checks that a span measures with the registry's clock and
// records its duration into "<name>.seconds".
func TestSpanAndEvents(t *testing.T) {
	r := NewRegistry()
	// Deterministic clock: each call advances 1ms.
	var ticks int
	r.now = func() time.Time {
		ticks++
		return time.Unix(0, int64(ticks)*int64(time.Millisecond))
	}
	sp := r.StartSpan("plan")
	d := sp.End()
	if d != time.Millisecond {
		t.Errorf("span duration = %v, want 1ms", d)
	}
	if st := r.Histogram("plan.seconds").Stat(); st.Count != 1 || st.Sum != 0.001 {
		t.Errorf("span histogram = %+v, want one 1ms sample", st)
	}
}
