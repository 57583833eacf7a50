package train

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"autopipe/internal/config"
	"autopipe/internal/fault"
	"autopipe/internal/nn"
	"autopipe/internal/obs"
)

var update = flag.Bool("update", false, "rewrite golden files")

// driverCfg is a small but real configuration: a 2-layer GPT planned and
// trained across 3 devices. The cluster is derated so the micro-model's
// compute dominates launch overhead and link latency — on the real testbed
// constants a model this small would be pure overhead and compute faults
// would be invisible.
func driverCfg(steps int) DriverConfig {
	cl := config.DefaultCluster()
	cl.Device.FlopsPerSec = 1e9
	cl.Device.MemBandwidth = 1e9
	cl.Device.KernelOverhead = 1e-5
	cl.Network = config.Network{Bandwidth: 1e9, Latency: 1e-6}
	return DriverConfig{
		Model: config.Model{Name: "gpt-micro", Layers: 2, Hidden: 16, Heads: 2,
			FFNMult: 4, SeqLen: 8, Vocab: 17},
		NN:       nn.GPTConfig{Vocab: 17, MaxSeq: 8, Hidden: 16, Heads: 2, Layers: 2, FFNMult: 4, Seed: 7},
		Cluster:  cl,
		Depth:    3,
		Micro:    4,
		Batch:    4,
		Steps:    steps,
		DataSeed: 3,
		Sanitize: true,
	}
}

func TestDriverCleanRun(t *testing.T) {
	rep, err := RunDriver(context.Background(), driverCfg(6))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Iters) != 6 || len(rep.Losses) != 6 {
		t.Fatalf("iters/losses = %d/%d, want 6/6", len(rep.Iters), len(rep.Losses))
	}
	if len(rep.Recoveries) != 0 || rep.Retries != 0 {
		t.Errorf("clean run healed something: %+v", rep.Recoveries)
	}
	if rep.FinalDepth != 3 {
		t.Errorf("final depth = %d", rep.FinalDepth)
	}
	if rep.Losses[5] >= rep.Losses[0] {
		t.Errorf("loss did not decrease: %v", rep.Losses)
	}
}

// TestDriverCrashRecoveryE2E is the end-to-end recovery pin: a permanent
// device crash mid-training must checkpoint, re-partition over the survivors
// at reduced depth, restore, and finish — with losses matching the unfaulted
// run, because synchronous pipeline semantics are partition-invariant and the
// checkpoint round trip must be exact.
func TestDriverCrashRecoveryE2E(t *testing.T) {
	clean, err := RunDriver(context.Background(), driverCfg(6))
	if err != nil {
		t.Fatal(err)
	}
	// Crash device 1 midway through the third iteration.
	at := clean.Iters[0] + clean.Iters[1] + clean.Iters[2]/2

	cfg := driverCfg(6)
	cfg.Obs = obs.NewRegistry()
	cfg.Faults = &fault.Plan{Name: "crash", Faults: []fault.Fault{
		{Kind: fault.DeviceCrash, At: at, Device: 1},
	}}
	rep, err := RunDriver(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Losses) != 6 {
		t.Fatalf("crashed run completed %d/6 iterations", len(rep.Losses))
	}
	if rep.FinalDepth != 2 {
		t.Errorf("final depth = %d, want 2 survivors", rep.FinalDepth)
	}
	for _, d := range rep.Devices {
		if d == 1 {
			t.Errorf("dead device still in pipeline: %v", rep.Devices)
		}
	}
	if len(rep.Recoveries) == 0 || rep.Recoveries[0].Kind != "device-crash" {
		t.Fatalf("recoveries = %+v", rep.Recoveries)
	}
	rec := rep.Recoveries[0]
	if rec.DepthBefore != 3 || rec.DepthAfter != 2 || rec.Downtime <= 0 {
		t.Errorf("recovery record = %+v", rec)
	}
	// Training semantics survive the crash: pre-crash losses are identical,
	// post-recovery losses match to numerical noise (the surviving plan may
	// slice differently, which only reorders float additions).
	for i := range clean.Losses {
		tol := 0.0
		if i+1 >= rec.Iter {
			tol = 1e-9
		}
		if diff := math.Abs(clean.Losses[i] - rep.Losses[i]); diff > tol {
			t.Errorf("iter %d: loss diverged by %g (clean %.12f, crashed %.12f)",
				i+1, diff, clean.Losses[i], rep.Losses[i])
		}
	}
	// Recovery latency and post-recovery throughput are reported through obs.
	snap := cfg.Obs.Snapshot()
	if snap.Counters["driver.recoveries"] < 1 {
		t.Error("driver.recoveries not counted")
	}
	if snap.Gauges["driver.recovery_latency_s"] <= 0 {
		t.Error("driver.recovery_latency_s not set")
	}
	if snap.Gauges["driver.post_recovery_throughput"] <= 0 {
		t.Error("driver.post_recovery_throughput not set")
	}
	if snap.Counters["fault.injected"] < 1 {
		t.Error("fault.injected not counted")
	}
}

// TestDriverTransientRetry: a count-mode message drop costs retries, not
// depth.
func TestDriverTransientRetry(t *testing.T) {
	cfg := driverCfg(3)
	cfg.Faults = &fault.Plan{Faults: []fault.Fault{
		{Kind: fault.MsgDrop, At: 0, From: 0, To: 1, Count: 2},
	}}
	rep, err := RunDriver(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Retries != 2 {
		t.Errorf("retries = %d, want 2", rep.Retries)
	}
	if rep.FinalDepth != 3 || len(rep.Recoveries) != 0 {
		t.Errorf("transient fault escalated: depth %d, recoveries %+v", rep.FinalDepth, rep.Recoveries)
	}
}

// TestDriverRetriesExhausted: more drops than the retry budget is a typed
// failure.
func TestDriverRetriesExhausted(t *testing.T) {
	cfg := driverCfg(3)
	cfg.Faults = &fault.Plan{Faults: []fault.Fault{
		{Kind: fault.MsgDrop, At: 0, From: 0, To: 1, Count: 100},
	}}
	_, err := RunDriver(context.Background(), cfg)
	if err == nil || !strings.Contains(err.Error(), "retries exhausted") {
		t.Fatalf("err = %v, want retries exhausted", err)
	}
}

// TestDriverStragglerReplan: a sustained slowdown triggers re-profiling and a
// live re-plan without losing depth or state.
func TestDriverStragglerReplan(t *testing.T) {
	cfg := driverCfg(8)
	cfg.Faults = &fault.Plan{Faults: []fault.Fault{
		{Kind: fault.Straggler, At: 0, Device: 0, Factor: 3},
	}}
	rep, err := RunDriver(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var straggler *Recovery
	for i := range rep.Recoveries {
		if rep.Recoveries[i].Kind == "straggler" {
			straggler = &rep.Recoveries[i]
			break
		}
	}
	if straggler == nil {
		t.Fatalf("no straggler recovery in %+v (log: %v)", rep.Recoveries, rep.Log)
	}
	if rep.FinalDepth != 3 {
		t.Errorf("live replan changed depth to %d", rep.FinalDepth)
	}
	if len(rep.Losses) != 8 {
		t.Errorf("completed %d/8 iterations", len(rep.Losses))
	}
}

// TestDriverOOMRecovery: an injected OOM replans at the same depth and the
// retry completes.
func TestDriverOOMRecovery(t *testing.T) {
	cfg := driverCfg(3)
	cfg.Faults = &fault.Plan{Faults: []fault.Fault{
		{Kind: fault.DeviceOOM, At: 0, Device: 0},
	}}
	rep, err := RunDriver(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Recoveries) != 1 || rep.Recoveries[0].Kind != "oom" {
		t.Fatalf("recoveries = %+v", rep.Recoveries)
	}
	if rep.FinalDepth != 3 || len(rep.Losses) != 3 {
		t.Errorf("depth %d, %d losses", rep.FinalDepth, len(rep.Losses))
	}
}

// TestDriverLinkDownFailsOver: a permanently dead link evicts the stranded
// downstream device via the same checkpoint → replan → resume path.
func TestDriverLinkDownFailsOver(t *testing.T) {
	cfg := driverCfg(4)
	cfg.Faults = &fault.Plan{Faults: []fault.Fault{
		{Kind: fault.LinkFlap, At: 0, From: 1, To: 2}, // permanent
	}}
	rep, err := RunDriver(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Recoveries) == 0 || rep.Recoveries[0].Kind != "link-down" {
		t.Fatalf("recoveries = %+v", rep.Recoveries)
	}
	if rep.FinalDepth != 2 {
		t.Errorf("final depth = %d, want 2 (downstream endpoint evicted)", rep.FinalDepth)
	}
	for _, d := range rep.Devices {
		if d == 2 {
			t.Errorf("stranded device 2 still in pipeline: %v", rep.Devices)
		}
	}
}

// goldenTrajectory renders the determinism-pinned view of a report: the event
// log, replan decisions, and iteration times — everything but the losses
// (whose transcendental math is excluded from cross-platform golden files).
func goldenTrajectory(rep *Report) string {
	var sb strings.Builder
	for _, line := range rep.Log {
		fmt.Fprintf(&sb, "%s\n", line)
	}
	for i, it := range rep.Iters {
		fmt.Fprintf(&sb, "iter %d: time %.9gs\n", i+1, it)
	}
	fmt.Fprintf(&sb, "clock %.9gs retries %d replans %d depth %d devices %v bounds %v\n",
		rep.Clock, rep.Retries, rep.Replans, rep.FinalDepth, rep.Devices, rep.Bounds)
	return sb.String()
}

func faultedGoldenCfg() DriverConfig {
	cfg := driverCfg(8)
	cfg.Faults = &fault.Plan{
		Name: "golden", Seed: 13,
		Faults: []fault.Fault{
			{Kind: fault.MsgDrop, At: 0, From: 0, To: 1, Count: 1},
			{Kind: fault.Straggler, At: 0.08, Duration: 0.3, Device: 2, Factor: 2.5},
			{Kind: fault.DeviceCrash, At: 0.45, Device: 1},
		},
	}
	return cfg
}

// TestDriverGoldenTrajectory: the same fault plan and seed produce a
// byte-identical recovery trajectory, pinned against a checked-in golden
// file. Regenerate with `go test ./internal/train -run Golden -update`.
func TestDriverGoldenTrajectory(t *testing.T) {
	rep, err := RunDriver(context.Background(), faultedGoldenCfg())
	if err != nil {
		t.Fatal(err)
	}
	got := goldenTrajectory(rep)
	path := filepath.Join("testdata", "driver_recovery.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("recovery trajectory diverged from golden file.\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestDriverDeterministicReplay: two in-process runs of the same faulted
// config agree on everything, including the losses.
func TestDriverDeterministicReplay(t *testing.T) {
	a, err := RunDriver(context.Background(), faultedGoldenCfg())
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunDriver(context.Background(), faultedGoldenCfg())
	if err != nil {
		t.Fatal(err)
	}
	if goldenTrajectory(a) != goldenTrajectory(b) {
		t.Fatal("trajectories diverged between identical runs")
	}
	for i := range a.Losses {
		if a.Losses[i] != b.Losses[i] {
			t.Fatalf("loss %d diverged: %v vs %v", i, a.Losses[i], b.Losses[i])
		}
	}
}

// TestCheckpointRoundTrip: Snapshot/Restore is exact across a re-cut, and
// restores optimizer momentum.
func TestCheckpointRoundTrip(t *testing.T) {
	cfg := nn.TinyGPT()
	mods := nn.BuildGPT(cfg)
	opt := NewAdam(1e-3)
	ds := NewDataset(cfg.Vocab, cfg.MaxSeq, 1)
	micros := ds.Micros(2, 4)
	scale := 1.0 / float64(2*4*cfg.MaxSeq)

	nn.ZeroGrads(nn.CollectParams(mods))
	SerialStep(mods, micros, scale)
	opt.Step(nn.CollectParams(mods))
	ck := Snapshot(1, nn.CollectParams(mods), opt)
	if ck.SizeBytes() <= 0 {
		t.Fatal("checkpoint is empty")
	}

	// Continue the original two more steps.
	for i := 0; i < 2; i++ {
		nn.ZeroGrads(nn.CollectParams(mods))
		SerialStep(mods, ds.Micros(2, 4), scale)
		opt.Step(nn.CollectParams(mods))
	}
	ref := nn.CollectParams(mods)

	// Restore into a fresh model and replay the same two steps with a replayed
	// data stream.
	mods2 := nn.BuildGPT(nn.GPTConfig{Vocab: cfg.Vocab, MaxSeq: cfg.MaxSeq, Hidden: cfg.Hidden,
		Heads: cfg.Heads, Layers: cfg.Layers, FFNMult: cfg.FFNMult, Seed: 999})
	opt2 := NewAdam(1e-3)
	if err := ck.Restore(nn.CollectParams(mods2), opt2); err != nil {
		t.Fatal(err)
	}
	ds2 := NewDataset(cfg.Vocab, cfg.MaxSeq, 1)
	ds2.Micros(2, 4) // burn the first step's batches
	for i := 0; i < 2; i++ {
		nn.ZeroGrads(nn.CollectParams(mods2))
		SerialStep(mods2, ds2.Micros(2, 4), scale)
		opt2.Step(nn.CollectParams(mods2))
	}
	got := nn.CollectParams(mods2)
	if len(got) != len(ref) {
		t.Fatalf("param counts differ: %d vs %d", len(got), len(ref))
	}
	for i := range ref {
		for j := range ref[i].W.Data {
			if ref[i].W.Data[j] != got[i].W.Data[j] {
				t.Fatalf("param %s[%d] diverged after restore+replay", ref[i].Name, j)
			}
		}
	}
}

// TestCheckpointRestoreRejectsMismatch: a checkpoint from a different
// architecture is refused, not silently truncated.
func TestCheckpointRestoreRejectsMismatch(t *testing.T) {
	a := nn.BuildGPT(nn.TinyGPT())
	ck := Snapshot(0, nn.CollectParams(a), nil)
	big := nn.TinyGPT()
	big.Hidden *= 2
	b := nn.BuildGPT(big)
	if err := ck.Restore(nn.CollectParams(b), nil); err == nil {
		t.Fatal("mismatched restore accepted")
	}
}

func TestDriverConfigValidation(t *testing.T) {
	cfg := driverCfg(3)
	cfg.Depth = 0
	if _, err := RunDriver(context.Background(), cfg); err == nil {
		t.Error("zero depth accepted")
	}
	cfg = driverCfg(3)
	cfg.Faults = &fault.Plan{Faults: []fault.Fault{{Kind: "meteor"}}}
	if _, err := RunDriver(context.Background(), cfg); err == nil {
		t.Error("invalid fault plan accepted")
	}
	cfg = driverCfg(3)
	cfg.Depth = 100
	if _, err := RunDriver(context.Background(), cfg); err == nil {
		t.Error("depth beyond block count accepted")
	}
}
