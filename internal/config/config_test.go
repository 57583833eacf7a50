package config

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"autopipe/internal/errdefs"
)

func TestZooValidatesAndMatchesTable1(t *testing.T) {
	zoo := Zoo()
	if len(zoo) != 4 {
		t.Fatalf("zoo has %d models, want 4", len(zoo))
	}
	want := map[string]struct{ layers, hidden int }{
		"GPT-2 345M": {24, 1024},
		"GPT-2 762M": {36, 1280},
		"GPT-2 1.3B": {24, 2048},
		"BERT-large": {24, 1024},
	}
	for _, m := range zoo {
		if err := m.Validate(); err != nil {
			t.Errorf("%s: %v", m.Name, err)
		}
		w, ok := want[m.Name]
		if !ok {
			t.Errorf("unexpected model %s", m.Name)
			continue
		}
		if m.Layers != w.layers || m.Hidden != w.hidden {
			t.Errorf("%s: %d layers / %d hidden, want %d / %d", m.Name, m.Layers, m.Hidden, w.layers, w.hidden)
		}
	}
}

func TestModelByName(t *testing.T) {
	for _, name := range []string{"gpt2-345m", "gpt2-762m", "gpt2-1.3b", "bert-large", "GPT-2 345M"} {
		if _, err := ModelByName(name); err != nil {
			t.Errorf("ModelByName(%q): %v", name, err)
		}
	}
	if _, err := ModelByName("llama"); err == nil {
		t.Error("want error for unknown model")
	}
}

func TestModelValidate(t *testing.T) {
	base := GPT2_345M()
	bad := []func(*Model){
		func(m *Model) { m.Layers = 0 },
		func(m *Model) { m.Hidden = -1 },
		func(m *Model) { m.Heads = 7 }, // does not divide 1024
		func(m *Model) { m.FFNMult = 0 },
		func(m *Model) { m.SeqLen = 0 },
		func(m *Model) { m.Vocab = 0 },
	}
	for i, mutate := range bad {
		m := base
		mutate(&m)
		if err := m.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestRunMicroBatches(t *testing.T) {
	r := Run{MicroBatch: 4, GlobalBatch: 128}
	if got := r.MicroBatches(1); got != 32 {
		t.Errorf("dp=1: %d micro-batches, want 32", got)
	}
	if got := r.MicroBatches(4); got != 8 {
		t.Errorf("dp=4: %d micro-batches, want 8", got)
	}
	if got := r.MicroBatches(0); got != 32 {
		t.Errorf("dp=0 treated as 1: got %d", got)
	}
	direct := Run{MicroBatch: 4, NumMicro: 6}
	if got := direct.MicroBatches(8); got != 6 {
		t.Errorf("NumMicro run: %d, want 6", got)
	}
	tiny := Run{MicroBatch: 64, GlobalBatch: 128}
	if got := tiny.MicroBatches(16); got != 1 {
		t.Errorf("clamped micro-batches: %d, want 1", got)
	}
}

func TestRunValidate(t *testing.T) {
	if err := (Run{MicroBatch: 4, GlobalBatch: 128}).Validate(); err != nil {
		t.Error(err)
	}
	if err := (Run{MicroBatch: 0, GlobalBatch: 128}).Validate(); err == nil {
		t.Error("want error for zero micro-batch")
	}
	if err := (Run{MicroBatch: 4}).Validate(); err == nil {
		t.Error("want error for missing batch spec")
	}
	if err := (Run{MicroBatch: 3, GlobalBatch: 128}).Validate(); err == nil {
		t.Error("want error for indivisible global batch")
	}
}

// TestRunValidateCapsMicroBatches: the micro-batch count is capped so an
// untrusted run cannot make the simulator overflow its index arithmetic or
// allocate without limit; the cap is inclusive and holds for both ways of
// giving the count.
func TestRunValidateCapsMicroBatches(t *testing.T) {
	for _, r := range []Run{
		{MicroBatch: 1, GlobalBatch: maxMicroBatches},
		{MicroBatch: 16, GlobalBatch: 16 * maxMicroBatches},
		{MicroBatch: 1, NumMicro: maxMicroBatches},
	} {
		if err := r.Validate(); err != nil {
			t.Errorf("%+v at the cap: %v", r, err)
		}
	}
	for _, r := range []Run{
		{MicroBatch: 1, GlobalBatch: maxMicroBatches + 1},
		{MicroBatch: 1, GlobalBatch: 1 << 60},
		{MicroBatch: 1, NumMicro: maxMicroBatches + 1},
		{MicroBatch: 4, NumMicro: 1 << 61},
	} {
		if err := r.Validate(); !errors.Is(err, errdefs.ErrBadConfig) {
			t.Errorf("%+v over the cap: got %v, want ErrBadConfig", r, err)
		}
	}
}

func TestDefaultClusterProfile(t *testing.T) {
	cl := DefaultCluster()
	if cl.NumGPUs != 16 {
		t.Errorf("default cluster has %d GPUs, want 16", cl.NumGPUs)
	}
	if cl.Device.MemoryBytes != 24<<30 {
		t.Errorf("device memory %d, want 24 GiB", cl.Device.MemoryBytes)
	}
	if cl.Network.Bandwidth <= 0 || cl.Network.Latency <= 0 {
		t.Error("network profile not positive")
	}
}

func TestSave(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cluster.json")
	want := DefaultCluster()
	if err := Save(path, want); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasSuffix(data, []byte("}\n")) {
		t.Errorf("saved file does not end in a newline-terminated object: %q", data)
	}
	var got Cluster
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("round trip mismatch: %+v vs %+v", got, want)
	}
}
