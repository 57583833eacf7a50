package schedule

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"autopipe/internal/errdefs"
)

// TestJSONRoundTrip pins the codec: every builder's output survives
// encode → parse unchanged.
func TestJSONRoundTrip(t *testing.T) {
	build := []func() (*Schedule, error){
		func() (*Schedule, error) { return OneFOneB(4, 8) },
		func() (*Schedule, error) { return GPipe(3, 5) },
		func() (*Schedule, error) { return Sliced(4, 8, 2) },
		func() (*Schedule, error) { return Interleaved(4, 8, 2) },
	}
	for _, b := range build {
		s, err := b()
		if err != nil {
			t.Fatal(err)
		}
		data, err := EncodeJSON(s)
		if err != nil {
			t.Fatalf("%s: encode: %v", s.Name, err)
		}
		got, err := ParseJSON(data)
		if err != nil {
			t.Fatalf("%s: parse: %v", s.Name, err)
		}
		if !reflect.DeepEqual(got, s) {
			t.Errorf("%s: round-trip mismatch:\ngot  %+v\nwant %+v", s.Name, got, s)
		}
	}
}

// TestScheduleGoldens pins the checked-in schedule goldens to the builders:
// a golden that drifts from what the code produces fails here, and a golden
// that breaks structurally fails the root fixture test as well.
func TestScheduleGoldens(t *testing.T) {
	cases := []struct {
		file  string
		build func() (*Schedule, error)
	}{
		{"1f1b_p4_m8.json", func() (*Schedule, error) { return OneFOneB(4, 8) }},
		{"sliced_p4_m8_s2.json", func() (*Schedule, error) { return Sliced(4, 8, 2) }},
		{"interleaved_p4_m8_v2.json", func() (*Schedule, error) { return Interleaved(4, 8, 2) }},
	}
	for _, c := range cases {
		data, err := os.ReadFile(filepath.Join("..", "..", "testdata", "schedules", c.file))
		if err != nil {
			t.Fatal(err)
		}
		got, err := ParseJSON(data)
		if err != nil {
			t.Fatalf("%s: %v", c.file, err)
		}
		want, err := c.build()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s does not match its builder output", c.file)
		}
	}
}

func TestParseJSONRejects(t *testing.T) {
	cases := map[string]string{
		"not json":       `]`,
		"unknown field":  `{"name":"x","devices":1,"virtStages":1,"deviceOf":[0],"numMicro":1,"ops":[[]],"bogus":1}`,
		"trailing data":  `{"name":"x","devices":1,"virtStages":1,"deviceOf":[0],"numMicro":1,"ops":[[{"kind":"F","virt":0,"micro":0},{"kind":"B","virt":0,"micro":0}]]} {}`,
		"bad kind":       `{"name":"x","devices":1,"virtStages":1,"deviceOf":[0],"numMicro":1,"ops":[[{"kind":"Q","virt":0,"micro":0}]]}`,
		"bad half":       `{"name":"x","devices":1,"virtStages":1,"deviceOf":[0],"numMicro":1,"ops":[[{"kind":"F","virt":0,"micro":0,"half":7}]]}`,
		"dangling virt":  `{"name":"x","devices":1,"virtStages":1,"deviceOf":[0],"numMicro":1,"ops":[[{"kind":"F","virt":5,"micro":0},{"kind":"B","virt":0,"micro":0}]]}`,
		"duplicate op":   `{"name":"x","devices":1,"virtStages":1,"deviceOf":[0],"numMicro":1,"ops":[[{"kind":"F","virt":0,"micro":0},{"kind":"F","virt":0,"micro":0},{"kind":"B","virt":0,"micro":0}]]}`,
		"wrong op lists": `{"name":"x","devices":2,"virtStages":2,"deviceOf":[0,1],"numMicro":1,"ops":[[{"kind":"F","virt":0,"micro":0},{"kind":"B","virt":0,"micro":0}]]}`,
	}
	for name, doc := range cases {
		if _, err := ParseJSON([]byte(doc)); err == nil {
			t.Errorf("%s: accepted", name)
		} else if !errors.Is(err, errdefs.ErrBadConfig) {
			t.Errorf("%s: error does not wrap ErrBadConfig: %v", name, err)
		}
	}
}

// TestCheckDeadlock covers the static deadlock detector: every builder
// schedule is cycle-free, and a hand-crossed schedule (a stage issuing its
// backward before the forward the downstream stage needs) is caught.
func TestCheckDeadlock(t *testing.T) {
	for _, build := range []func() (*Schedule, error){
		func() (*Schedule, error) { return OneFOneB(4, 8) },
		func() (*Schedule, error) { return GPipe(3, 5) },
		func() (*Schedule, error) { return Sliced(4, 8, 2) },
		func() (*Schedule, error) { return Sliced(4, 8, 8) },
		func() (*Schedule, error) { return Interleaved(4, 8, 2) },
	} {
		s, err := build()
		if err != nil {
			t.Fatal(err)
		}
		if err := s.CheckDeadlock(); err != nil {
			t.Errorf("%s: false deadlock: %v", s.Name, err)
		}
	}

	// Device 0 issues its backward first. B0@s0 waits on B0@s1, which waits
	// on F0@s1, which waits on F0@s0 — scheduled after B0@s0: a cycle.
	dead := &Schedule{
		Name: "crossed", Devices: 2, VirtStages: 2, DeviceOf: []int{0, 1}, NumMicro: 1, Chunks: 1,
		Ops: [][]Op{
			{{Kind: Bwd, Virt: 0, Micro: 0, Half: -1}, {Kind: Fwd, Virt: 0, Micro: 0, Half: -1}},
			{{Kind: Fwd, Virt: 1, Micro: 0, Half: -1}, {Kind: Bwd, Virt: 1, Micro: 0, Half: -1}},
		},
	}
	if err := dead.Validate(); err != nil {
		t.Fatalf("crossed schedule should be structurally valid: %v", err)
	}
	err := dead.CheckDeadlock()
	if !errors.Is(err, errdefs.ErrDeadlock) {
		t.Errorf("crossed schedule: want ErrDeadlock, got %v", err)
	}

	// A NoSend forward whose sibling does not aggregate never delivers its
	// payload downstream.
	orphan := &Schedule{
		Name: "orphan-nosend", Devices: 2, VirtStages: 2, DeviceOf: []int{0, 1}, NumMicro: 1, Chunks: 1, NumSliced: 1,
		Ops: [][]Op{
			{{Kind: Fwd, Virt: 0, Micro: 0, Half: 0, NoSend: true}, {Kind: Fwd, Virt: 0, Micro: 0, Half: 1}, {Kind: Bwd, Virt: 0, Micro: 0, Half: -1}},
			{{Kind: Fwd, Virt: 1, Micro: 0, Half: 0}, {Kind: Fwd, Virt: 1, Micro: 0, Half: 1}, {Kind: Bwd, Virt: 1, Micro: 0, Half: -1}},
		},
	}
	if err := orphan.CheckDeadlock(); !errors.Is(err, errdefs.ErrBadConfig) {
		t.Errorf("orphan NoSend: want ErrBadConfig, got %v", err)
	}
}
