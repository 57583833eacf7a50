package experiments

import (
	"fmt"

	"autopipe/internal/config"
	"autopipe/internal/fault"
	"autopipe/internal/nn"
	"autopipe/internal/obs"
	"autopipe/internal/tableio"
	"autopipe/internal/train"
)

// ResilienceRow is one scenario of the self-healing sweep: the same tiny
// training run under a different injected fault class, with what the driver
// did about it and what it cost.
type ResilienceRow struct {
	Scenario string
	// Iters is the number of completed training iterations (always the
	// configured step count — every scenario below is survivable).
	Iters int
	// Retries/Replans/Recoveries count the driver's healing actions.
	Retries    int
	Replans    int
	Recoveries int
	// FinalDepth is the pipeline depth training ended on (reduced after a
	// device loss).
	FinalDepth int
	// Downtime is the summed modeled recovery latency in simulated seconds;
	// Clock the total simulated time including it.
	Downtime float64
	Clock    float64
	// Throughput is iterations per simulated second, net of downtime.
	Throughput float64
	// FinalLoss is the last training loss — the cross-scenario sanity check
	// that recovery resumed from a faithful checkpoint instead of
	// restarting.
	FinalLoss float64
}

// resilienceSteps is the per-scenario iteration count. The injected fault
// times below are tuned to this horizon on the derated cluster (one
// iteration ≈ 0.07 simulated seconds).
const resilienceSteps = 8

// resilienceConfig mirrors the driver test fixture: a 2-layer GPT across 3
// devices on a derated cluster, so the micro-model's compute dominates
// launch overhead and link latency and compute faults are visible. The
// testbed constants in e.Cluster would drown a model this small in
// overhead.
func (e Env) resilienceConfig() train.DriverConfig {
	cl := e.Cluster
	cl.Device.FlopsPerSec = 1e9
	cl.Device.MemBandwidth = 1e9
	cl.Device.KernelOverhead = 1e-5
	cl.Network = config.Network{Bandwidth: 1e9, Latency: 1e-6}
	return train.DriverConfig{
		Model: config.Model{Name: "gpt-micro", Layers: 2, Hidden: 16, Heads: 2,
			FFNMult: 4, SeqLen: 8, Vocab: 17},
		NN:       nn.GPTConfig{Vocab: 17, MaxSeq: 8, Hidden: 16, Heads: 2, Layers: 2, FFNMult: 4, Seed: 7},
		Cluster:  cl,
		Depth:    3,
		Micro:    4,
		Batch:    4,
		Steps:    resilienceSteps,
		DataSeed: 3,
	}
}

// Resilience runs the self-healing training driver under one fault class per
// scenario (beyond the paper; DESIGN.md §10): a clean baseline, a transient
// message drop (retry), a sustained straggler (live re-plan), and a
// permanent device crash (checkpoint → re-partition over survivors →
// resume). When e.Faults is set, the custom plan is appended as a fifth
// scenario. Every run completes its full step count — the rows measure the
// cost of surviving, not whether survival happened.
func (e Env) Resilience() ([]ResilienceRow, *tableio.Table, error) {
	scenarios := []struct {
		name string
		plan *fault.Plan
	}{
		{"clean", nil},
		{"transient-drop", &fault.Plan{Name: "transient-drop", Seed: 13, Faults: []fault.Fault{
			{Kind: fault.MsgDrop, At: 0, From: 0, To: 1, Count: 1},
		}}},
		{"straggler", &fault.Plan{Name: "straggler", Seed: 13, Faults: []fault.Fault{
			{Kind: fault.Straggler, At: 0.08, Duration: 0.3, Device: 2, Factor: 2.5},
		}}},
		{"device-crash", &fault.Plan{Name: "device-crash", Seed: 13, Faults: []fault.Fault{
			{Kind: fault.DeviceCrash, At: 0.45, Device: 1},
		}}},
	}
	if e.Faults != nil {
		name := e.Faults.Name
		if name == "" {
			name = "custom"
		}
		scenarios = append(scenarios, struct {
			name string
			plan *fault.Plan
		}{name, e.Faults})
	}

	var rows []ResilienceRow
	for _, sc := range scenarios {
		cfg := e.resilienceConfig()
		cfg.Faults = sc.plan
		cfg.Obs = obs.NewRegistry()
		rep, err := train.RunDriver(e.ctx(), cfg)
		if err != nil {
			return nil, nil, fmt.Errorf("experiments: resilience %s: %w", sc.name, err)
		}
		row := ResilienceRow{
			Scenario:   sc.name,
			Iters:      len(rep.Iters),
			Retries:    rep.Retries,
			Replans:    rep.Replans,
			Recoveries: len(rep.Recoveries),
			FinalDepth: rep.FinalDepth,
			Clock:      rep.Clock,
		}
		for _, r := range rep.Recoveries {
			row.Downtime += r.Downtime
		}
		if rep.Clock > 0 {
			row.Throughput = float64(len(rep.Iters)) / rep.Clock
		}
		if n := len(rep.Losses); n > 0 {
			row.FinalLoss = rep.Losses[n-1]
		}
		rows = append(rows, row)
	}

	t := &tableio.Table{
		ID:    "resilience",
		Title: "Self-healing driver under injected faults (beyond the paper; DESIGN.md §10)",
		Columns: []string{"Scenario", "Iters", "Retries", "Replans", "Recoveries",
			"Final depth", "Downtime (ms)", "Clock (s)", "Iter/s", "Final loss"},
	}
	for _, r := range rows {
		t.AddRowf(r.Scenario, r.Iters, r.Retries, r.Replans, r.Recoveries, r.FinalDepth,
			fmt.Sprintf("%.2f", r.Downtime*1e3), fmt.Sprintf("%.3f", r.Clock),
			fmt.Sprintf("%.2f", r.Throughput), fmt.Sprintf("%.4f", r.FinalLoss))
	}
	t.Note("All scenarios complete the full %d iterations; fault times are absolute on the simulated clock.", resilienceSteps)
	t.Note("device-crash re-partitions over the two survivors, so its final depth is 2 and its throughput includes checkpoint + replan downtime.")
	return rows, t, nil
}
