// Package obs is a dependency-free observability kit for the reproduction:
// named counters, gauges, and histograms collected in a Registry, wall-clock
// spans, and a structured event stream with pluggable JSON/text encoders.
//
// The paper's claims are timing-shape claims — startup halved by micro-batch
// slicing, Cooldown bubbles flattened by the planner — so the rest of the
// stack (exec, sim, core, slicer, train, the CLIs) publishes its measurements
// here instead of printing ad-hoc scalars. Everything is safe for concurrent
// use; the pipeline runtime updates metrics from per-stage goroutines.
package obs

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric.
type Counter struct {
	mu sync.Mutex
	v  float64
}

// Add increases the counter. Negative deltas are ignored: a counter only
// moves forward.
func (c *Counter) Add(delta float64) {
	if delta < 0 {
		return
	}
	c.mu.Lock()
	c.v += delta
	c.mu.Unlock()
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.v
}

// Gauge is a set-to-current-value metric.
type Gauge struct {
	mu sync.Mutex
	v  float64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) {
	g.mu.Lock()
	g.v = v
	g.mu.Unlock()
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.v
}

// histBuckets is the number of power-of-two histogram buckets. Bucket i
// holds observations in (2^(i-1-histShift), 2^(i-histShift)]; with shift 30
// the range spans ~1ns to ~16s when observing seconds.
const (
	histBuckets = 64
	histShift   = 30
)

// Histogram accumulates a distribution in power-of-two buckets plus exact
// count/sum/min/max. Quantiles are bucket-resolution approximations, which
// is plenty for bubble and span distributions.
type Histogram struct {
	mu       sync.Mutex
	count    int64
	sum      float64
	min, max float64
	buckets  [histBuckets]int64
}

func bucketOf(v float64) int {
	if v <= 0 {
		return 0
	}
	b := int(math.Ceil(math.Log2(v))) + histShift
	if b < 0 {
		b = 0
	}
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return b
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	h.buckets[bucketOf(v)]++
}

// Bucket is one cumulative histogram bucket: Count observations were less
// than or equal to LE. Buckets are the Prometheus exposition's native shape;
// only non-empty buckets are exported.
type Bucket struct {
	LE    float64 `json:"le"`
	Count int64   `json:"count"`
}

// Stat summarizes a histogram at snapshot time.
type Stat struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P99   float64 `json:"p99"`
	// Buckets holds the cumulative distribution over the power-of-two bucket
	// bounds, one entry per non-empty bucket (the final entry's Count equals
	// Count). WritePrometheus renders these as <name>_bucket{le="..."} lines.
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Stat returns the current summary.
func (h *Histogram) Stat() Stat {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := Stat{Count: h.count, Sum: h.sum, Min: h.min, Max: h.max}
	if h.count > 0 {
		s.Mean = h.sum / float64(h.count)
		s.P50 = h.quantileLocked(0.50)
		s.P99 = h.quantileLocked(0.99)
	}
	var cum int64
	for i, n := range h.buckets {
		if n == 0 {
			continue
		}
		cum += n
		s.Buckets = append(s.Buckets, Bucket{LE: math.Pow(2, float64(i-histShift)), Count: cum})
	}
	return s
}

// quantileLocked returns the upper bound of the bucket holding the q-th
// sample, clamped to the observed min/max.
func (h *Histogram) quantileLocked(q float64) float64 {
	rank := int64(q * float64(h.count))
	if rank >= h.count {
		rank = h.count - 1
	}
	var seen int64
	for i, n := range h.buckets {
		seen += n
		if seen > rank {
			v := math.Pow(2, float64(i-histShift))
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
	}
	return h.max
}

// Registry is a namespace of metrics plus an optional event sink. The zero
// value is not usable; call NewRegistry.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	sink     Sink
	// hasSink mirrors sink != nil so the emission hot path can bail out
	// without taking the lock (or allocating anything at all).
	hasSink atomic.Bool
	now     func() time.Time
}

// NewRegistry returns an empty registry with no event sink.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
		now:      time.Now,
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// SetSink installs the event sink; nil disables event emission.
func (r *Registry) SetSink(s Sink) {
	r.mu.Lock()
	r.sink = s
	r.hasSink.Store(s != nil)
	r.mu.Unlock()
}

// HasSink reports whether an event sink is installed. Emission call sites on
// hot paths check it before building a Fields map, so a registry with no sink
// costs nothing per event.
func (r *Registry) HasSink() bool { return r.hasSink.Load() }

// Emit sends a structured event to the sink, if one is installed. Fields are
// shallow-copied so callers may reuse their map. With no sink installed the
// call allocates nothing and returns immediately; TestEmitNoSinkAllocsNothing
// pins that path at 0 allocs/op.
func (r *Registry) Emit(name string, fields Fields) {
	if !r.hasSink.Load() {
		return
	}
	r.mu.Lock()
	sink, now := r.sink, r.now()
	r.mu.Unlock()
	if sink == nil {
		return
	}
	cp := make(Fields, len(fields))
	for k, v := range fields {
		cp[k] = v
	}
	sink.Emit(Event{Time: now, Name: name, Fields: cp})
}

// Span is an in-flight wall-clock measurement started by StartSpan.
type Span struct {
	reg   *Registry
	name  string
	start time.Time
}

// StartSpan begins timing name. End records the duration into the histogram
// "<name>.seconds" and emits a "<name>" event with the duration.
func (r *Registry) StartSpan(name string) *Span {
	return &Span{reg: r, name: name, start: r.now()}
}

// End stops the span and returns the elapsed time.
func (s *Span) End() time.Duration {
	d := s.reg.now().Sub(s.start)
	s.reg.Histogram(s.name + ".seconds").Observe(d.Seconds())
	if s.reg.HasSink() {
		s.reg.Emit(s.name, Fields{"seconds": d.Seconds()})
	}
	return d
}

// Snapshot is a point-in-time export of every metric in a registry.
type Snapshot struct {
	Counters   map[string]float64 `json:"counters"`
	Gauges     map[string]float64 `json:"gauges"`
	Histograms map[string]Stat    `json:"histograms"`
}

// Snapshot captures the registry's current state.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		Counters:   make(map[string]float64, len(r.counters)),
		Gauges:     make(map[string]float64, len(r.gauges)),
		Histograms: make(map[string]Stat, len(r.hists)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.Stat()
	}
	return s
}

// sortedKeys returns the map's keys in lexical order, for deterministic text
// encodings.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// String renders the snapshot as sorted "name value" lines (the text
// encoding; WriteJSON/WriteText live in encode.go).
func (s Snapshot) String() string {
	out := ""
	for _, k := range sortedKeys(s.Counters) {
		out += fmt.Sprintf("counter %s %g\n", k, s.Counters[k])
	}
	for _, k := range sortedKeys(s.Gauges) {
		out += fmt.Sprintf("gauge %s %g\n", k, s.Gauges[k])
	}
	for _, k := range sortedKeys(s.Histograms) {
		st := s.Histograms[k]
		out += fmt.Sprintf("histogram %s count=%d sum=%g min=%g max=%g mean=%g p50=%g p99=%g\n",
			k, st.Count, st.Sum, st.Min, st.Max, st.Mean, st.P50, st.P99)
	}
	return out
}
