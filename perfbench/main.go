// Command perfbench is the repository benchmark: it runs one seeded workload
// against the public planner API or an in-process autopiped daemon, checks
// every output, and prints the end-to-end metrics (or, with --trace 1, the
// per-layer metrics) by name with units. The last line of standard output is
// the JSON result. See README.md in this directory.
package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricSpec names a metric and its unit; the tables below are the
// benchmark's contract and match BENCHMARK.json.
type metricSpec struct{ Name, Unit string }

var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"plan_ms_p50", "ms"},
	{"plan_ms_p99", "ms"},
	{"plans_per_s", "1/s"},
	{"req_ms_p50", "ms"},
	{"req_ms_p99", "ms"},
	{"req_per_s", "1/s"},
	{"miss_ms_p50", "ms"},
	{"ok_share", "share"},
	{"rss_peak_mb", "MiB"},
}

var perLayer = []metricSpec{
	{"sim.calls_per_plan", "count"},
	{"sim.call_us", "us"},
	{"sim.est_share", "share"},
	{"runtime.alloc_kb_per_plan", "KiB"},
	{"runtime.allocs_per_plan", "count"},
	{"runtime.gc_cpu_share", "share"},
	{"core.candidates_per_plan", "count"},
	{"core.sim_cache_hit_ratio", "ratio"},
	{"core.depths_pruned_per_plan", "count"},
	{"core.seed_ms", "ms"},
	{"core.adjust_ms", "ms"},
	{"core.move_ms", "ms"},
	{"partition.balance_us", "us"},
	{"model.build_us", "us"},
	{"memory.fits_us", "us"},
	{"slicer.solve_us", "us"},
	{"plan.evaluate_us", "us"},
	{"plan.unexplained_share", "share"},
	{"service.handler_us_p50", "us"},
	{"service.handler_us_p99", "us"},
	{"client.net_us_p50", "us"},
	{"client.conns_per_kreq", "count"},
	{"runtime.alloc_kb_per_req", "KiB"},
	{"service.cache_hit_ratio", "ratio"},
	{"service.engine_searches", "count"},
	{"service.singleflight_shared", "count"},
	{"service.refused", "count"},
	{"service.engine_ms_p50", "ms"},
	{"loadgen.late_ms_p50", "ms"},
	{"loadgen.late_ms_p99", "ms"},
	{"trace.overhead_share", "share"},
}

// setupReps is how many times each run repeats its set-up; setup_s is the
// median, so one slow boot does not move it.
const setupReps = 9

// failedMs stands in for +Inf, the latency of a failed operation, in the JSON
// result.
const failedMs = 1e9

var workloads = map[string]func(*runCtx) error{
	"plan-cold": runPlanCold,
	"svc-hot":   runSvcHot,
	"svc-mixed": runSvcMixed,
}

// envStamp is printed with every result so that numbers from different
// machines are never compared silently.
type envStamp struct {
	Workload           string `json:"workload"`
	Seed               int64  `json:"seed"`
	Seconds            int    `json:"seconds"`
	Trace              bool   `json:"trace"`
	NumCPU             int    `json:"nproc"`
	GOMAXPROCS         int    `json:"gomaxprocs"`
	PlannerParallelism int    `json:"planner_parallelism"`
	GoVersion          string `json:"go"`
	Platform           string `json:"platform"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runCtx carries one run's settings and collects its outputs.
type runCtx struct {
	env     envStamp
	seed    int64
	seconds time.Duration
	outDir  string
	out     io.Writer
	rec     *recorder // nil unless --trace 1
	start   time.Time
	steal   *stealClock

	rssMiB  float64 // peak RSS as rss_peak_mb reports it
	rssNote string

	units     map[string]string
	metrics   map[string]metric
	attempted int
	failed    int
	checkErrs []string
}

// set records a metric of the current mode; note is printed beside it (sample
// counts, definitions).
func (r *runCtx) set(name string, v float64, note string) {
	unit, ok := r.units[name]
	if !ok {
		return // a metric of the other mode
	}
	fmt.Fprintf(r.out, "metric %-28s %14.6g %-6s %s\n", name, v, unit, note)
	if math.IsInf(v, 1) {
		v = failedMs
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// checkf records a failed output check.
func (r *runCtx) checkf(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if len(r.checkErrs) < 20 {
		fmt.Fprintf(r.out, "check FAILED: %s\n", msg)
	}
	r.checkErrs = append(r.checkErrs, msg)
}

func (r *runCtx) elapsed() time.Duration { return time.Since(r.start) }

// unstolen returns ts with host steal subtracted from every latency, and the
// steal-free length of the window they span.
func (r *runCtx) unstolen(ts []timing) ([]timing, time.Duration) {
	if len(ts) == 0 {
		return nil, 0
	}
	lo, hi := ts[0].Due, ts[0].End
	for _, t := range ts {
		lo, hi = min(lo, t.Due), max(hi, t.End)
	}
	stolen := r.steal.stolen(lo, hi)
	fmt.Fprintf(r.out, "host: %.1f%% of the window's wall time was steal, subtracted from the timings below\n",
		100*float64(stolen)/float64(hi-lo))
	return r.steal.adjust(ts), hi - lo - stolen
}

// windowClosed records the peak RSS at the end of the measured window, before
// the output checks run, unless a workload read it earlier.
func (r *runCtx) windowClosed() {
	if r.rssNote == "" {
		r.rssMiB, r.rssNote = peakRSSMiB(), "(VmHWM of the process when the measured window closed)"
	}
}

// setupTimer times one set-up, less host steal.
func (r *runCtx) setupTimer() func() float64 {
	t0 := r.elapsed()
	return func() float64 {
		t1 := r.elapsed()
		return (t1 - t0 - r.steal.stolen(t0, t1)).Seconds()
	}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "plan-cold, svc-hot or svc-mixed")
	seed := fs.Int64("seed", 1, "seed of the generated requests")
	seconds := fs.Int("seconds", 10, "length of the measured window")
	trace := fs.Int("trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end ones")
	outDir := fs.String("out", ".bench_build/perfbench", "directory for span dumps")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload plan-cold|svc-hot|svc-mixed, --seconds > 0 and --trace 0|1\n")
		return 2
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	w := bufio.NewWriter(stdout)
	defer w.Flush()
	r := &runCtx{
		env: envStamp{
			Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: *trace == 1,
			NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
			// The planner's default parallelism is one worker per GOMAXPROCS.
			PlannerParallelism: runtime.GOMAXPROCS(0),
			GoVersion:          runtime.Version(), Platform: runtime.GOOS + "/" + runtime.GOARCH,
		},
		seed: *seed, seconds: time.Duration(*seconds) * time.Second, outDir: *outDir, out: w,
		start: time.Now(), units: map[string]string{}, metrics: map[string]metric{},
	}
	specs := endToEnd
	if *trace == 1 {
		specs = perLayer
		r.rec = newRecorder(r.start)
	}
	for _, s := range specs {
		r.units[s.Name] = s.Unit
	}
	r.steal = startStealClock(r.start, runtime.NumCPU())
	defer r.steal.close()
	stamp, _ := json.Marshal(r.env)
	fmt.Fprintf(w, "env %s\n", stamp)

	if err := wl(r); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	r.set("rss_peak_mb", r.rssMiB, r.rssNote)
	if r.rec != nil {
		spans := r.rec.spans()
		printLayers(w, summarize(spans))
		path := filepath.Join(*outDir, "trace-"+*workload+".json")
		if err := writeTrace(path, r.env, spans); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(w, "trace: %d spans written to %s\n", len(spans), path)
	}
	var missing []string
	for _, s := range specs {
		if _, ok := r.metrics[s.Name]; !ok {
			missing = append(missing, s.Name)
		}
	}
	if len(missing) > 0 {
		fmt.Fprintf(stderr, "perfbench: %s did not measure %s\n", *workload, strings.Join(missing, ", "))
		return 1
	}
	res := result{Correct: len(r.checkErrs) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: r.metrics}
	if res.Attempted < 1 {
		fmt.Fprintf(stderr, "perfbench: %s attempted nothing\n", *workload)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(w, "%s\n", line)
	if !res.Correct {
		fmt.Fprintf(stderr, "perfbench: %s: %d output checks failed\n", *workload, len(r.checkErrs))
		return 1
	}
	return 0
}

// peakRSSMiB reads the process's peak resident set size.
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range bytes.Split(data, []byte("\n")) {
		if f := strings.Fields(string(line)); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// cpuSample reads the runtime's cumulative GC and total CPU estimates.
type cpuSample struct{ gc, total float64 }

func readCPU() cpuSample {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return cpuSample{gc: s[0].Value.Float64(), total: s[1].Value.Float64()}
}

// gcShare is the share of the process's CPU capacity the garbage collector
// used between two samples.
func gcShare(a, b cpuSample) float64 {
	if b.total <= a.total {
		return 0
	}
	return (b.gc - a.gc) / (b.total - a.total)
}

// overheadShare compares the median latency of traced and untraced
// operations interleaved in one run: the cost of tracing.
func overheadShare(ts []timing, traced func(i int) bool) float64 {
	var on, off []float64
	for i, t := range ts {
		if traced(i) {
			on = append(on, ms(t.Latency()))
		} else {
			off = append(off, ms(t.Latency()))
		}
	}
	if len(on) == 0 || len(off) == 0 || median(off) == 0 {
		return 0
	}
	return median(on)/median(off) - 1
}

// digest prints a hash over the canonical outputs, keyed by request, so two
// commits can be shown to return identical plans.
func digest(w io.Writer, outputs map[string]string) {
	keys := make([]string, 0, len(outputs))
	for k := range outputs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		fmt.Fprintf(h, "%s\t%s\n", k, outputs[k])
	}
	fmt.Fprintf(w, "digest sha256:%x over %d distinct requests\n", h.Sum(nil), len(keys))
}
