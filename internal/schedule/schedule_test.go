package schedule

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// renderOps renders one device's issue order as space-separated Op.String
// forms, with [nosend] and [agg] marking the redirected sends.
func renderOps(ops []Op) string {
	parts := make([]string, len(ops))
	for i, op := range ops {
		parts[i] = op.String()
		if op.NoSend {
			parts[i] += "[nosend]"
		}
		if op.AggSend {
			parts[i] += "[agg]"
		}
	}
	return strings.Join(parts, " ")
}

// TestScheduleGoldens pins the op order of one schedule of each shape the
// executor runs, 1F1B p4 m8, interleaved p4 m8 v2 and sliced p4 m8 s2, to a
// table of expected per-device sequences, and their shape fields with it.
// Each case runs as a subtest named for its shape.
func TestScheduleGoldens(t *testing.T) {
	cases := []struct {
		name  string
		build func() (*Schedule, error)
		want  Schedule // every field but Ops
		ops   []string // one rendered issue order per device
	}{
		{
			name:  "1f1b_p4_m8",
			build: func() (*Schedule, error) { return OneFOneB(4, 8) },
			want:  Schedule{Name: "1F1B", Devices: 4, VirtStages: 4, DeviceOf: []int{0, 1, 2, 3}, NumMicro: 8, Chunks: 1},
			ops: []string{
				"F0@s0 F1@s0 F2@s0 F3@s0 B0@s0 F4@s0 B1@s0 F5@s0 " +
					"B2@s0 F6@s0 B3@s0 F7@s0 B4@s0 B5@s0 B6@s0 B7@s0",
				"F0@s1 F1@s1 F2@s1 B0@s1 F3@s1 B1@s1 F4@s1 B2@s1 " +
					"F5@s1 B3@s1 F6@s1 B4@s1 F7@s1 B5@s1 B6@s1 B7@s1",
				"F0@s2 F1@s2 B0@s2 F2@s2 B1@s2 F3@s2 B2@s2 F4@s2 " +
					"B3@s2 F5@s2 B4@s2 F6@s2 B5@s2 F7@s2 B6@s2 B7@s2",
				"F0@s3 B0@s3 F1@s3 B1@s3 F2@s3 B2@s3 F3@s3 B3@s3 " +
					"F4@s3 B4@s3 F5@s3 B5@s3 F6@s3 B6@s3 F7@s3 B7@s3",
			},
		},
		{
			name:  "interleaved_p4_m8_v2",
			build: func() (*Schedule, error) { return Interleaved(4, 8, 2) },
			want:  Schedule{Name: "Interleaved-2", Devices: 4, VirtStages: 8, DeviceOf: []int{0, 1, 2, 3, 0, 1, 2, 3}, NumMicro: 8, Chunks: 2},
			ops: []string{
				"F0@s0 F1@s0 F2@s0 F3@s0 F0@s4 F1@s4 F2@s4 F3@s4 " +
					"F4@s0 F5@s0 F6@s0 B0@s4 F7@s0 B1@s4 F4@s4 B2@s4 " +
					"F5@s4 B3@s4 F6@s4 B0@s0 F7@s4 B1@s0 B2@s0 B3@s0 " +
					"B4@s4 B5@s4 B6@s4 B7@s4 B4@s0 B5@s0 B6@s0 B7@s0",
				"F0@s1 F1@s1 F2@s1 F3@s1 F0@s5 F1@s5 F2@s5 F3@s5 " +
					"F4@s1 B0@s5 F5@s1 B1@s5 F6@s1 B2@s5 F7@s1 B3@s5 " +
					"F4@s5 B0@s1 F5@s5 B1@s1 F6@s5 B2@s1 F7@s5 B3@s1 " +
					"B4@s5 B5@s5 B6@s5 B7@s5 B4@s1 B5@s1 B6@s1 B7@s1",
				"F0@s2 F1@s2 F2@s2 F3@s2 F0@s6 F1@s6 F2@s6 B0@s6 " +
					"F3@s6 B1@s6 F4@s2 B2@s6 F5@s2 B3@s6 F6@s2 B0@s2 " +
					"F7@s2 B1@s2 F4@s6 B2@s2 F5@s6 B3@s2 F6@s6 B4@s6 " +
					"F7@s6 B5@s6 B6@s6 B7@s6 B4@s2 B5@s2 B6@s2 B7@s2",
				"F0@s3 F1@s3 F2@s3 F3@s3 F0@s7 B0@s7 F1@s7 B1@s7 " +
					"F2@s7 B2@s7 F3@s7 B3@s7 F4@s3 B0@s3 F5@s3 B1@s3 " +
					"F6@s3 B2@s3 F7@s3 B3@s3 F4@s7 B4@s7 F5@s7 B5@s7 " +
					"F6@s7 B6@s7 F7@s7 B7@s7 B4@s3 B5@s3 B6@s3 B7@s3",
			},
		},
		{
			name:  "sliced_p4_m8_s2",
			build: func() (*Schedule, error) { return Sliced(4, 8, 2) },
			want:  Schedule{Name: "Sliced-1F1B", Devices: 4, VirtStages: 4, DeviceOf: []int{0, 1, 2, 3}, NumMicro: 8, Chunks: 1, NumSliced: 2},
			ops: []string{
				"F0a@s0 F0b@s0 F1a@s0 F1b@s0 F2@s0 F3@s0 B0@s0 F4@s0 " +
					"B1@s0 F5@s0 B2@s0 F6@s0 B3@s0 F7@s0 B4@s0 B5@s0 " +
					"B6@s0 B7@s0",
				"F0a@s1 F0b@s1 F1a@s1 F1b@s1 F2@s1 B0@s1 F3@s1 B1@s1 " +
					"F4@s1 B2@s1 F5@s1 B3@s1 F6@s1 B4@s1 F7@s1 B5@s1 " +
					"B6@s1 B7@s1",
				"F0a@s2 F0b@s2 F1a@s2[nosend] F1b@s2[agg] B0@s2 F2@s2 B1@s2 F3@s2 " +
					"B2@s2 F4@s2 B3@s2 F5@s2 B4@s2 F6@s2 B5@s2 F7@s2 " +
					"B6@s2 B7@s2",
				"F0a@s3 F0b@s3 B0@s3 F1a@s3 F1b@s3 B1@s3 F2@s3 B2@s3 " +
					"F3@s3 B3@s3 F4@s3 B4@s3 F5@s3 B5@s3 F6@s3 B6@s3 " +
					"F7@s3 B7@s3",
			},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s, err := c.build()
			if err != nil {
				t.Fatal(err)
			}
			ops := s.Ops
			shape := *s
			shape.Ops = nil
			if !reflect.DeepEqual(shape, c.want) {
				t.Errorf("%s: shape %+v, want %+v", s.Name, shape, c.want)
			}
			if len(ops) != len(c.ops) {
				t.Fatalf("%s: %d op lists, want %d", s.Name, len(ops), len(c.ops))
			}
			for d := range ops {
				if got := renderOps(ops[d]); got != c.ops[d] {
					t.Errorf("%s device %d:\n got %s\nwant %s", s.Name, d, got, c.ops[d])
				}
			}
		})
	}
}

func TestOneFOneBValidates(t *testing.T) {
	for _, tc := range []struct{ p, m int }{{1, 1}, {2, 4}, {4, 8}, {8, 3}, {16, 32}} {
		s, err := OneFOneB(tc.p, tc.m)
		if err != nil {
			t.Fatalf("p=%d m=%d: %v", tc.p, tc.m, err)
		}
		if err := s.Validate(); err != nil {
			t.Errorf("p=%d m=%d: %v", tc.p, tc.m, err)
		}
	}
	if _, err := OneFOneB(0, 4); err == nil {
		t.Error("want error for zero depth")
	}
}

func TestOneFOneBWarmupDepth(t *testing.T) {
	s, err := OneFOneB(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	for x, ops := range s.Ops {
		warm := 0
		for _, op := range ops {
			if op.Kind != Fwd {
				break
			}
			warm++
		}
		// p-1-x warmup forwards plus the first 1F1B block's forward.
		if want := 4 - x; warm != want {
			t.Errorf("stage %d leads with %d forwards, want %d", x, warm, want)
		}
	}
}

func TestGPipeAllForwardsFirst(t *testing.T) {
	s, err := GPipe(3, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	for x, ops := range s.Ops {
		for i, op := range ops {
			wantKind := Fwd
			if i >= 5 {
				wantKind = Bwd
			}
			if op.Kind != wantKind {
				t.Errorf("stage %d op %d is %v", x, i, op.Kind)
			}
		}
	}
}

func TestSlicedStructure(t *testing.T) {
	p, m, n := 4, 8, 2
	s, err := Sliced(p, m, n)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	for x, ops := range s.Ops {
		var aggs, noSends int
		for _, op := range ops {
			if op.Kind == Fwd && op.Micro < n {
				if op.Half < 0 {
					t.Errorf("stage %d: sliced micro %d has a full forward", x, op.Micro)
				}
			}
			if op.Kind == Fwd && op.Micro >= n && op.Half >= 0 {
				t.Errorf("stage %d: unsliced micro %d is halved", x, op.Micro)
			}
			if op.Kind == Bwd && op.Half >= 0 {
				t.Errorf("stage %d: backward is halved", x)
			}
			if op.AggSend {
				aggs++
			}
			if op.NoSend {
				noSends++
			}
		}
		// The blocking micro-batch p-1-x is aggregated when sliced (and the
		// stage is not last).
		blocking := p - 1 - x
		wantAgg := 0
		if blocking < n && x < p-1 {
			wantAgg = 1
		}
		if aggs != wantAgg || noSends != wantAgg {
			t.Errorf("stage %d: %d aggregated / %d suppressed sends, want %d", x, aggs, noSends, wantAgg)
		}
	}
	if _, err := Sliced(4, 8, 9); err == nil {
		t.Error("want error for slicing more micro-batches than exist")
	}
	if _, err := Sliced(4, 8, -1); err == nil {
		t.Error("want error for negative slice count")
	}
}

func TestSlicedZeroEqualsOneFOneB(t *testing.T) {
	for p := 1; p <= 8; p++ {
		for m := 1; m <= 16; m++ {
			want, err := OneFOneB(p, m)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Sliced(p, m, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("p=%d m=%d: Sliced(p, m, 0) = %+v, want OneFOneB's %+v", p, m, got, want)
			}
		}
	}
}

func TestInterleavedStructure(t *testing.T) {
	p, m, v := 4, 8, 2
	s, err := Interleaved(p, m, v)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.VirtStages != p*v {
		t.Errorf("virtual stages = %d, want %d", s.VirtStages, p*v)
	}
	// Chunk c of device d is virtual stage c*p+d.
	for c := 0; c < v; c++ {
		for d := 0; d < p; d++ {
			if s.DeviceOf[c*p+d] != d {
				t.Errorf("virtual stage %d on device %d, want %d", c*p+d, s.DeviceOf[c*p+d], d)
			}
		}
	}
	// Megatron warmup count per device; the steady state leads with one
	// more forward before the first backward.
	for d := 0; d < p; d++ {
		warm := 0
		for _, op := range s.Ops[d] {
			if op.Kind != Fwd {
				break
			}
			warm++
		}
		want := 2*(p-d-1) + (v-1)*p + 1
		if cap := m * v; want > cap {
			want = cap
		}
		if warm != want {
			t.Errorf("device %d leads with %d forwards, want %d", d, warm, want)
		}
	}
}

func TestInterleavedErrors(t *testing.T) {
	if _, err := Interleaved(4, 6, 2); err == nil {
		t.Error("want error when micro-batches are not divisible by depth")
	}
	if _, err := Interleaved(4, 8, 1); err == nil {
		t.Error("want error for a single chunk")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	s, _ := OneFOneB(2, 2)
	s.Ops[0][0].Micro = 7
	if err := s.Validate(); err == nil {
		t.Error("validate accepted an out-of-range micro-batch")
	}
	s, _ = OneFOneB(2, 2)
	s.Ops[0][0].Virt = 5
	if err := s.Validate(); err == nil {
		t.Error("validate accepted a dangling virtual stage")
	}
	s, _ = OneFOneB(2, 2)
	s.Ops[0] = s.Ops[0][1:]
	if err := s.Validate(); err == nil {
		t.Error("validate accepted a missing op")
	}
	s, _ = OneFOneB(2, 2)
	s.Ops[0][1].Virt = 1 // op on the wrong device
	if err := s.Validate(); err == nil {
		t.Error("validate accepted an op on the wrong device")
	}
}

// TestValidateTruncationAndDuplication: the corruption modes a damaged
// schedule can carry — dropped trailing ops and replayed ops — are caught
// by credit accounting, including the case where a duplicate exactly masks a
// truncation in op count.
func TestValidateTruncationAndDuplication(t *testing.T) {
	// Truncated tail: the cooldown backward is missing.
	s, _ := OneFOneB(2, 3)
	s.Ops[1] = s.Ops[1][:len(s.Ops[1])-1]
	if err := s.Validate(); err == nil {
		t.Error("validate accepted a truncated op list")
	}

	// Duplicated op: one forward appears twice, credit 2.
	s, _ = OneFOneB(2, 3)
	s.Ops[0] = append(s.Ops[0], s.Ops[0][0])
	if err := s.Validate(); err == nil {
		t.Error("validate accepted a duplicated op")
	}
	t.Run("one-stage-duplicate-forward", func(t *testing.T) {
		single := &Schedule{
			Name: "duplicated", Devices: 1, VirtStages: 1, DeviceOf: []int{0}, NumMicro: 1, Chunks: 1,
			Ops: [][]Op{{{Kind: Fwd, Half: -1}, {Kind: Fwd, Half: -1}, {Kind: Bwd, Half: -1}}},
		}
		if err := single.Validate(); err == nil {
			t.Error("validate accepted a one-stage schedule that issues its forward twice")
		}
	})

	// Duplicate masking a truncation: op count is unchanged but one
	// micro-batch runs twice and another never runs.
	s, _ = OneFOneB(2, 3)
	for i, op := range s.Ops[0] {
		if op.Kind == Fwd && op.Micro == 1 {
			dup := op
			dup.Micro = 0
			s.Ops[0][i] = dup
			break
		}
	}
	if err := s.Validate(); err == nil {
		t.Error("validate accepted a duplicate that masks a missing op")
	}

	// Sliced halves must both be present: dropping one half leaves 0.5
	// forward credit.
	s, _ = Sliced(2, 4, 1)
	for d, ops := range s.Ops {
		for i, op := range ops {
			if op.Half == 0 {
				s.Ops[d] = append(ops[:i:i], ops[i+1:]...)
				if err := s.Validate(); err == nil {
					t.Error("validate accepted a missing forward half")
				}
				break
			}
		}
	}

	// A sliced backward is structurally invalid.
	s, _ = OneFOneB(2, 2)
	for i, op := range s.Ops[0] {
		if op.Kind == Bwd {
			s.Ops[0][i].Half = 0
			break
		}
	}
	if err := s.Validate(); err == nil {
		t.Error("validate accepted a sliced backward")
	}

	// DeviceOf truncation and degenerate shapes.
	s, _ = OneFOneB(2, 2)
	s.DeviceOf = s.DeviceOf[:1]
	if err := s.Validate(); err == nil {
		t.Error("validate accepted a truncated DeviceOf")
	}
	s, _ = OneFOneB(2, 2)
	s.Devices = 0
	if err := s.Validate(); err == nil {
		t.Error("validate accepted zero devices")
	}
}

func TestSchedulesAlwaysValidate(t *testing.T) {
	prop := func(pRaw, mRaw, nRaw uint8) bool {
		p := 1 + int(pRaw)%12
		m := 1 + int(mRaw)%24
		s, err := OneFOneB(p, m)
		if err != nil || s.Validate() != nil {
			return false
		}
		g, err := GPipe(p, m)
		if err != nil || g.Validate() != nil {
			return false
		}
		n := int(nRaw) % (m + 1)
		sl, err := Sliced(p, m, n)
		if err != nil || sl.Validate() != nil {
			return false
		}
		if m%p == 0 && p > 0 {
			iv, err := Interleaved(p, m, 2)
			if err != nil || iv.Validate() != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestOpString(t *testing.T) {
	op := Op{Kind: Fwd, Virt: 2, Micro: 3, Half: 0}
	if s := op.String(); s != "F3a@s2" {
		t.Errorf("Op.String() = %q", s)
	}
	if s := (Op{Kind: Bwd, Virt: 0, Micro: 1, Half: -1}).String(); s != "B1@s0" {
		t.Errorf("Op.String() = %q", s)
	}
}

func TestPhasesOf(t *testing.T) {
	// 1F1B device 0 of a 4-deep pipeline: 3 warmup forwards, then blocks.
	s, err := OneFOneB(4, 6)
	if err != nil {
		t.Fatal(err)
	}
	// Device 0: F0 F1 F2 | F3 B0 F4 B1 F5 B2 | B3 B4 B5.
	want0 := []Phase{Warmup, Warmup, Warmup, Steady, Steady, Steady, Steady, Steady, Steady, Cooldown, Cooldown, Cooldown}
	for i, ph := range PhasesOf(s.Ops[0]) {
		if ph != want0[i] {
			t.Fatalf("1F1B dev 0 op %d (%v): phase %v, want %v", i, s.Ops[0][i], ph, want0[i])
		}
	}
	// Last device alternates from the start: no warmup, no cooldown.
	for i, ph := range PhasesOf(s.Ops[3]) {
		if ph != Steady {
			t.Errorf("1F1B dev 3 op %d: phase %v, want steady", i, ph)
		}
	}

	// GPipe: all forwards warmup except the last block pair; trailing
	// backwards are cooldown.
	g, err := GPipe(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	gp := PhasesOf(g.Ops[0])
	want := []Phase{Warmup, Warmup, Warmup, Steady, Steady, Cooldown, Cooldown, Cooldown}
	for i, ph := range gp {
		if ph != want[i] {
			t.Errorf("GPipe op %d (%v): phase %v, want %v", i, g.Ops[0][i], ph, want[i])
		}
	}

	// Sliced: both halves of the forward paired with the first backward
	// enter Steady together.
	sl, err := Sliced(2, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	ops := sl.Ops[0]
	ph := PhasesOf(ops)
	for i, op := range ops {
		if op.Kind == Bwd {
			if ph[i-1] != Steady || ph[i-2] != Steady {
				t.Errorf("sliced: halves before first backward are %v/%v, want steady", ph[i-2], ph[i-1])
			}
			break
		}
	}
}
