package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestSameSeedSameRequests(t *testing.T) {
	if !reflect.DeepEqual(cycleOrder(7, 3, 144), cycleOrder(7, 3, 144)) {
		t.Error("plan-cold order differs for one seed")
	}
	if reflect.DeepEqual(cycleOrder(7, 3, 144), cycleOrder(8, 3, 144)) {
		t.Error("plan-cold order is the same for two seeds")
	}
	if !reflect.DeepEqual(hotSequence(7, 1000), hotSequence(7, 1000)) {
		t.Error("svc-hot sequence differs for one seed")
	}
	if reflect.DeepEqual(hotSequence(7, 1000), hotSequence(8, 1000)) {
		t.Error("svc-hot sequence is the same for two seeds")
	}
	a, b := mixedSchedule(7, 200, 5*time.Second), mixedSchedule(7, 200, 5*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Error("svc-mixed schedule differs for one seed")
	}
	if reflect.DeepEqual(a, mixedSchedule(8, 200, 5*time.Second)) {
		t.Error("svc-mixed schedule is the same for two seeds")
	}
}

func TestMixedScheduleShape(t *testing.T) {
	s := mixedSchedule(3, 200, 10*time.Second)
	if len(s) != 2000 {
		t.Fatalf("%d requests, want rate × window = 2000", len(s))
	}
	keys := map[string]bool{}
	var misses, profiles int
	for i, m := range s {
		if i > 0 && m.Due < s[i-1].Due {
			t.Fatalf("request %d is due before request %d", i, i-1)
		}
		if m.Due < 0 || m.Due >= 10*time.Second {
			t.Fatalf("request %d due at %v, outside the window", i, m.Due)
		}
		switch {
		case m.Hot >= 0:
		case m.Req.Plan != nil:
			misses++
			k := planReq{m.Req.Plan.Model, m.Req.Plan.Run, m.Req.Plan.Cluster}.String()
			if keys[k] {
				t.Errorf("miss %s repeats", k)
			}
			keys[k] = true
		default:
			profiles++
			if err := m.Req.Validate(); err != nil {
				t.Errorf("profile request %d: %v", i, err)
			}
		}
	}
	if misses != 400 || profiles != 80 {
		t.Errorf("%d misses and %d profiles, want 400 and 80", misses, profiles)
	}
}

func TestPercentileRule(t *testing.T) {
	xs := make([]float64, 999)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if _, err := pct(xs, 0.99); err == nil {
		t.Error("p99 printed from 999 samples")
	}
	xs = append(xs, 1000)
	v, err := pct(xs, 0.99)
	if err != nil || v != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990", v, err)
	}
	if _, err := pct(xs[:19], 0.5); err == nil {
		t.Error("median printed from 19 samples")
	}
	if v, err := pct(xs[:20], 0.5); err != nil || v != 10 {
		t.Errorf("median of 1..20 = %v, %v; want 10", v, err)
	}
	for i := 980; i < 1000; i++ {
		xs[i] = math.Inf(1) // a failed request misses any limit
	}
	if v, _ := pct(xs, 0.99); !math.IsInf(v, 1) {
		t.Errorf("p99 with 2%% failed = %v, want +Inf", v)
	}
}

func TestOpenLoopMeasuresFromDueTime(t *testing.T) {
	// One sender, three requests all due at once, each taking 20 ms: the
	// later ones wait for the sender, and the wait is in their latency.
	const work = 20 * time.Millisecond
	ts := openLoop(1, time.Now(), []time.Duration{0, 0, 0}, func(int) bool {
		time.Sleep(work)
		return true
	})
	for i, tm := range ts {
		want := time.Duration(i+1) * work
		if got := tm.Latency(); got < want || got > want+15*time.Millisecond {
			t.Errorf("request %d latency %v, want about %v", i, got, want)
		}
		if got := tm.Late(); got < time.Duration(i)*work {
			t.Errorf("request %d late %v, want at least %v", i, got, time.Duration(i)*work)
		}
	}
	if latenciesMs([]timing{{Failed: true}})[0] != math.Inf(1) {
		t.Error("a failed request has a finite latency")
	}
}

func TestClosedLoopStops(t *testing.T) {
	ts := closedLoop(3, time.Now(), func(i int, _ time.Duration) bool { return i >= 50 }, func(i int) bool { return i%2 == 0 })
	if len(ts) != 50 {
		t.Fatalf("%d operations, want 50", len(ts))
	}
	if countFailed(ts) != 25 {
		t.Errorf("%d failed, want 25", countFailed(ts))
	}
}

func TestSelfTimeOfNestedSpans(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{ID: 1, Name: "root", Start: ms(0), End: ms(100)},
		{ID: 2, Parent: 1, Name: "a", Start: ms(10), End: ms(30)},
		{ID: 3, Parent: 1, Name: "b", Start: ms(20), End: ms(50)},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: ms(90), End: ms(120)}, // leaves the root
		{ID: 5, Parent: 3, Name: "d", Start: ms(25), End: ms(35)},
	}
	self := selfTimes(spans)
	want := map[uint64]time.Duration{1: ms(50), 2: ms(20), 3: ms(20), 4: ms(30), 5: ms(10)}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times %v, want %v", self, want)
	}
	rows := summarize(spans)
	if rows[0].Name != "root" || rows[0].Self != ms(50) || rows[0].Total != ms(100) {
		t.Errorf("top row %+v, want root with 50ms self of 100ms", rows[0])
	}
}

func TestStealInterpolation(t *testing.T) {
	at := []time.Duration{0, 100, 200}
	v := []time.Duration{0, 50, 50}
	for _, c := range []struct{ t, want time.Duration }{{-5, 0}, {50, 25}, {150, 50}, {300, 50}} {
		if got := interpolate(at, v, c.t); got != c.want {
			t.Errorf("interpolate(%v) = %v, want %v", c.t, got, c.want)
		}
	}
	c := &stealClock{ncpu: 2, at: at, steal: v}
	if got := c.stolen(0, 100); got != 25 {
		t.Errorf("stolen over [0,100) = %v, want 25 (50 over 2 CPUs)", got)
	}
	adj := c.adjust([]timing{{Due: 0, Start: 0, End: 100}})
	if adj[0].Latency() != 75 {
		t.Errorf("adjusted latency %v, want 75", adj[0].Latency())
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json and the metric tables
// the program prints in step.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var cfg struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &cfg); err != nil {
		t.Fatal(err)
	}
	for _, w := range cfg.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q has no implementation", w.Name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricSpec) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]", kind, i, got[i].Name, got[i].Unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", cfg.EndToEnd, endToEnd)
	check("per_layer", cfg.PerLayer, perLayer)
}

// TestSvcHotRun runs the shortest svc-hot benchmark end to end and checks the
// output contract: every end-to-end metric, and a correct result.
func TestSvcHotRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the daemon for a second")
	}
	var out bytes.Buffer
	code := run([]string{"--workload", "svc-hot", "--seed", "3", "--seconds", "1", "--out", t.TempDir()}, &out, io.Discard)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out.String())
	}
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v", err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1000 {
		t.Errorf("result %+v", res)
	}
	for _, m := range endToEnd {
		got, ok := res.Metrics[m.Name]
		if !ok || got.Unit != m.Unit || got.Value <= 0 {
			t.Errorf("metric %s = %+v, want a positive value in %s", m.Name, got, m.Unit)
		}
	}
	if !strings.HasPrefix(lines[0], `env {"workload":"svc-hot","seed":3`) {
		t.Errorf("first line %q is not the environment stamp", lines[0])
	}
}
