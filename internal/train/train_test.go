package train

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"autopipe/internal/nn"
	"autopipe/internal/obs"
	"autopipe/internal/tensor"
)

func tinyMicros(t *testing.T, cfg nn.GPTConfig, m, batch int, seed uint64) []Batch {
	t.Helper()
	ds := NewDataset(cfg.Vocab, cfg.MaxSeq-2, seed)
	return ds.Micros(m, batch)
}

// cloneGrads snapshots accumulated gradients keyed by parameter name.
func cloneGrads(params []*nn.Param) map[string][]float64 {
	out := make(map[string][]float64, len(params))
	for _, p := range params {
		out[p.Name] = append([]float64(nil), p.Grad.Data...)
	}
	return out
}

func maxGradDiff(a, b map[string][]float64) (string, float64) {
	var worstName string
	var worst float64
	for name, av := range a {
		bv := b[name]
		for i := range av {
			if d := math.Abs(av[i] - bv[i]); d > worst {
				worst = d
				worstName = name
			}
		}
	}
	return worstName, worst
}

// TestPipelineMatchesSerial is the core semantic claim of synchronous
// pipeline parallelism (paper §II-B): distributing the model across stages
// changes nothing about the computation. Losses and every parameter
// gradient must match the serial reference.
func TestPipelineMatchesSerial(t *testing.T) {
	cfg := nn.TinyGPT()
	m, batch := 6, 4
	scale := 1.0 / float64(m*batch*(cfg.MaxSeq-2))

	for _, stages := range [][]int{
		{0, 6},          // single stage
		{0, 3, 6},       // 2 stages
		{0, 2, 4, 6},    // 3 stages, sub-layer cuts
		{0, 1, 3, 5, 6}, // 4 stages: embedding alone, head alone
	} {
		serialMods := nn.BuildGPT(cfg)
		pipeMods := nn.BuildGPT(cfg) // identical init (same seed)
		micros := tinyMicros(t, cfg, m, batch, 99)

		serialLoss := SerialStep(serialMods, micros, scale)

		pipe, err := NewPipeline(pipeMods, stages)
		if err != nil {
			t.Fatal(err)
		}
		pipeLoss, err := pipe.Step(micros, 0, scale)
		if err != nil {
			t.Fatalf("stages %v: %v", stages, err)
		}
		if math.Abs(serialLoss-pipeLoss) > 1e-12*(1+math.Abs(serialLoss)) {
			t.Errorf("stages %v: pipeline loss %.15g != serial %.15g", stages, pipeLoss, serialLoss)
		}
		name, diff := maxGradDiff(cloneGrads(nn.CollectParams(serialMods)), cloneGrads(pipe.AllParams()))
		if diff > 1e-12 {
			t.Errorf("stages %v: gradient mismatch %g at %s", stages, diff, name)
		}
	}
}

// TestSlicedPipelineMatchesSerial verifies the Slicer's semantic claim:
// splitting warmup micro-batches in half changes scheduling, not training.
// The oracle is the serial step: over the original hand-picked shape (six
// micro-batches of four, stages {0,2,4,6}, every sliced count it tried) and
// seeded random shapes — micro-batch count, even batch size, stage bounds
// and sliced count — the sliced pipeline's loss and every parameter gradient
// must match it.
func TestSlicedPipelineMatchesSerial(t *testing.T) {
	type shape struct {
		m, batch, sliced int
		bounds           []int
		seed             uint64
	}
	cfg := nn.TinyGPT()
	nMods := len(nn.BuildGPT(cfg))
	var shapes []shape
	for _, sliced := range []int{1, 2, 3, 6} {
		shapes = append(shapes, shape{m: 6, batch: 4, sliced: sliced, bounds: []int{0, 2, 4, 6}, seed: 4242})
	}
	rng := rand.New(rand.NewSource(19))
	for i := 0; i < 24; i++ {
		m := 1 + rng.Intn(8)
		// A random subset of the interior cut points, in order, gives
		// between 1 and nMods stages.
		bounds := []int{0}
		for cut := 1; cut < nMods; cut++ {
			if rng.Intn(2) == 0 {
				bounds = append(bounds, cut)
			}
		}
		bounds = append(bounds, nMods)
		shapes = append(shapes, shape{
			m: m, batch: 2 * (1 + rng.Intn(3)), sliced: 1 + rng.Intn(m),
			bounds: bounds, seed: uint64(rng.Int63()),
		})
	}

	for _, sh := range shapes {
		name := fmt.Sprintf("m%d_b%d_s%d_bounds%v", sh.m, sh.batch, sh.sliced, sh.bounds)
		scale := 1.0 / float64(sh.m*sh.batch*(cfg.MaxSeq-2))
		micros := tinyMicros(t, cfg, sh.m, sh.batch, sh.seed)

		serialMods := nn.BuildGPT(cfg)
		serialLoss := SerialStep(serialMods, micros, scale)
		want := cloneGrads(nn.CollectParams(serialMods))

		pipe, err := NewPipeline(nn.BuildGPT(cfg), sh.bounds)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		loss, err := pipe.Step(micros, sh.sliced, scale)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if math.Abs(loss-serialLoss) > 1e-9 {
			t.Errorf("%s: loss %.15g != serial %.15g", name, loss, serialLoss)
		}
		// Halved batches sum gradients in a different order; tolerance
		// covers float reassociation only.
		if param, diff := maxGradDiff(want, cloneGrads(pipe.AllParams())); diff > 1e-9 {
			t.Errorf("%s: gradient mismatch %g at %s", name, diff, param)
		}
	}
}

// TestSlicedRejectsOddBatch: micro-batch slicing needs an even batch size.
func TestSlicedRejectsOddBatch(t *testing.T) {
	cfg := nn.TinyGPT()
	pipe, err := NewPipeline(nn.BuildGPT(cfg), []int{0, 3, 6})
	if err != nil {
		t.Fatal(err)
	}
	micros := tinyMicros(t, cfg, 4, 3, 5)
	if _, err := pipe.Step(micros, 1, 1); err == nil {
		t.Error("want error for slicing an odd micro-batch")
	}
}

// TestTrainingConverges: the pipeline actually learns the synthetic task —
// the loss after a few Adam steps must drop well below the initial value.
func TestTrainingConverges(t *testing.T) {
	cfg := nn.TinyGPT()
	mods := nn.BuildGPT(cfg)
	pipe, err := NewPipeline(mods, []int{0, 2, 4, 6})
	if err != nil {
		t.Fatal(err)
	}
	ds := NewDataset(cfg.Vocab, cfg.MaxSeq-2, 11)
	opt := NewAdam(3e-3)
	params := pipe.AllParams()

	m, batch := 4, 4
	scale := 1.0 / float64(m*batch*(cfg.MaxSeq-2))
	first, last := 0.0, 0.0
	for step := 0; step < 30; step++ {
		micros := ds.Micros(m, batch)
		nn.ZeroGrads(params)
		loss, err := pipe.Step(micros, 1, scale)
		if err != nil {
			t.Fatal(err)
		}
		if step == 0 {
			first = loss
		}
		last = loss
		opt.Step(params)
	}
	if last > first*0.7 {
		t.Errorf("loss did not converge: first %.4f, last %.4f", first, last)
	}
}

// TestPipelineTrainingEqualsSerialTraining runs several optimizer steps on
// both runtimes and checks the weights stay identical.
func TestPipelineTrainingEqualsSerialTraining(t *testing.T) {
	cfg := nn.TinyGPT()
	serialMods := nn.BuildGPT(cfg)
	pipeMods := nn.BuildGPT(cfg)
	pipe, err := NewPipeline(pipeMods, []int{0, 3, 6})
	if err != nil {
		t.Fatal(err)
	}
	serialParams := nn.CollectParams(serialMods)
	pipeParams := pipe.AllParams()
	serialOpt := SGD{LR: 0.05}
	pipeOpt := SGD{LR: 0.05}

	dsA := NewDataset(cfg.Vocab, cfg.MaxSeq-2, 33)
	dsB := NewDataset(cfg.Vocab, cfg.MaxSeq-2, 33)
	m, batch := 4, 2
	scale := 1.0 / float64(m*batch*(cfg.MaxSeq-2))
	for step := 0; step < 5; step++ {
		microsA := dsA.Micros(m, batch)
		microsB := dsB.Micros(m, batch)
		nn.ZeroGrads(serialParams)
		SerialStep(serialMods, microsA, scale)
		serialOpt.Step(serialParams)
		nn.ZeroGrads(pipeParams)
		if _, err := pipe.Step(microsB, 0, scale); err != nil {
			t.Fatal(err)
		}
		pipeOpt.Step(pipeParams)
	}
	for i, p := range serialParams {
		q := pipeParams[i]
		if d := tensor.MaxAbsDiff(p.W, q.W); d > 1e-12 {
			t.Errorf("weights diverged at %s: %g", p.Name, d)
		}
	}
}

// TestAdamMatchesReference checks a single Adam update against hand-computed
// values.
func TestAdamMatchesReference(t *testing.T) {
	w := tensor.FromSlice([]float64{1, 2}, 2)
	p := &nn.Param{Name: "w", W: w, Grad: tensor.FromSlice([]float64{0.5, -0.25}, 2)}
	opt := NewAdam(0.1)
	opt.Step([]*nn.Param{p})
	// After one step Adam moves each weight by ~lr*sign(grad).
	wantDir := []float64{-1, 1}
	for i, v := range w.Data {
		moved := v - []float64{1, 2}[i]
		if math.Signbit(moved) != math.Signbit(wantDir[i]*math.Abs(moved)) || math.Abs(math.Abs(moved)-0.1) > 1e-6 {
			t.Errorf("weight %d moved by %g, want ~%g", i, moved, wantDir[i]*0.1)
		}
	}
}

// TestDatasetDeterministic: identical seeds give identical batches.
func TestDatasetDeterministic(t *testing.T) {
	a := NewDataset(13, 6, 5).Batch(3)
	b := NewDataset(13, 6, 5).Batch(3)
	if tensor.MaxAbsDiff(a.Inputs, b.Inputs) != 0 || tensor.MaxAbsDiff(a.Targets, b.Targets) != 0 {
		t.Error("same seed produced different batches")
	}
}

func TestNewPipelineRejectsBadBounds(t *testing.T) {
	mods := nn.BuildGPT(nn.TinyGPT())
	for _, bounds := range [][]int{{}, {0}, {1, 6}, {0, 5}, {0, 3, 3, 6}, {0, 6, 3}} {
		if _, err := NewPipeline(mods, bounds); err == nil {
			t.Errorf("bounds %v accepted", bounds)
		}
	}
}

// TestCheckpointedPipelineMatchesSerial ties activation checkpointing (paper
// §II-C) into the pipeline: wrapping every module with recompute-on-backward
// changes memory and timing, never the gradients.
func TestCheckpointedPipelineMatchesSerial(t *testing.T) {
	cfg := nn.TinyGPT()
	m, batch := 4, 4
	scale := 1.0 / float64(m*batch*(cfg.MaxSeq-2))
	micros := tinyMicros(t, cfg, m, batch, 77)

	serialMods := nn.BuildGPT(cfg)
	serialLoss := SerialStep(serialMods, micros, scale)
	want := cloneGrads(nn.CollectParams(serialMods))

	pipe, err := NewPipeline(nn.CheckpointAll(nn.BuildGPT(cfg)), []int{0, 3, 6})
	if err != nil {
		t.Fatal(err)
	}
	loss, err := pipe.Step(micros, 1, scale)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(loss-serialLoss) > 1e-12*(1+math.Abs(serialLoss)) {
		t.Errorf("checkpointed pipeline loss %.15g != serial %.15g", loss, serialLoss)
	}
	// Checkpointed backward recomputes the forward deterministically, so
	// per-micro-batch gradients are bitwise identical; only the sliced
	// micro-batch reassociates sums.
	name, diff := maxGradDiff(want, cloneGrads(pipe.AllParams()))
	if diff > 1e-9 {
		t.Errorf("gradient mismatch %g at %s", diff, name)
	}
}

// TestPipelineObs: a pipeline with an obs registry attached records the step
// span, op/micro counters, and the loss gauge.
func TestPipelineObs(t *testing.T) {
	cfg := nn.TinyGPT()
	m, batch := 4, 4
	scale := 1.0 / float64(m*batch*(cfg.MaxSeq-2))
	micros := tinyMicros(t, cfg, m, batch, 7)

	pipe, err := NewPipeline(nn.BuildGPT(cfg), []int{0, 3, 6})
	if err != nil {
		t.Fatal(err)
	}
	pipe.Obs = obs.NewRegistry()
	loss, err := pipe.Step(micros, 1, scale)
	if err != nil {
		t.Fatal(err)
	}
	snap := pipe.Obs.Snapshot()
	if got := snap.Counters["train.steps"]; got != 1 {
		t.Errorf("train.steps = %g, want 1", got)
	}
	if got := snap.Counters["train.micros"]; got != float64(m) {
		t.Errorf("train.micros = %g, want %d", got, m)
	}
	// 2 stages x (m + numSliced extra forward halves) forwards + m backwards.
	wantOps := float64(2 * (2*m + 1))
	if got := snap.Counters["train.ops"]; got != wantOps {
		t.Errorf("train.ops = %g, want %g", got, wantOps)
	}
	if got := snap.Gauges["train.loss"]; got != loss {
		t.Errorf("train.loss gauge = %g, want %g", got, loss)
	}
	if st := snap.Histograms["train.step.seconds"]; st.Count != 1 {
		t.Errorf("train.step.seconds count = %d, want 1", st.Count)
	}
}
