package fault

import (
	"errors"
	"testing"

	"autopipe/internal/errdefs"
	"autopipe/internal/obs"
)

func TestParseValidPlan(t *testing.T) {
	data := []byte(`{
		"name": "basic", "seed": 7,
		"faults": [
			{"kind": "straggler", "at": 1, "duration": 2, "device": 1, "factor": 1.5},
			{"kind": "link-degrade", "at": 0, "from": 0, "to": 1, "factor": 0.25},
			{"kind": "link-flap", "at": 3, "duration": 0.5, "from": 1, "to": 2},
			{"kind": "msg-drop", "at": 0, "from": 2, "to": 3, "count": 2},
			{"kind": "device-crash", "at": 9, "device": 3},
			{"kind": "oom", "at": 0, "device": 0}
		]
	}`)
	p, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "basic" || p.Seed != 7 || len(p.Faults) != 6 {
		t.Fatalf("parsed %+v", p)
	}
}

func TestParseRejections(t *testing.T) {
	cases := map[string]string{
		"unknown kind":     `{"faults":[{"kind":"meteor","at":0}]}`,
		"unknown field":    `{"faults":[],"surprise":1}`,
		"trailing data":    `{"faults":[]} {"faults":[]}`,
		"negative at":      `{"faults":[{"kind":"oom","at":-1,"device":0}]}`,
		"negative dur":     `{"faults":[{"kind":"straggler","at":0,"duration":-2,"device":0,"factor":2}]}`,
		"straggler < 1":    `{"faults":[{"kind":"straggler","at":0,"device":0,"factor":0.5}]}`,
		"degrade >= 1":     `{"faults":[{"kind":"link-degrade","at":0,"from":0,"to":1,"factor":1}]}`,
		"self link":        `{"faults":[{"kind":"link-flap","at":0,"from":2,"to":2}]}`,
		"count and prob":   `{"faults":[{"kind":"msg-drop","at":0,"from":0,"to":1,"count":1,"prob":0.5}]}`,
		"prob > 1":         `{"faults":[{"kind":"msg-drop","at":0,"from":0,"to":1,"prob":1.5}]}`,
		"crash with dur":   `{"faults":[{"kind":"device-crash","at":0,"duration":1,"device":0}]}`,
		"negative device":  `{"faults":[{"kind":"oom","at":0,"device":-1}]}`,
		"not json":         `]`,
		"negative count":   `{"faults":[{"kind":"msg-drop","at":0,"from":0,"to":1,"count":-1}]}`,
		"negative endport": `{"faults":[{"kind":"msg-drop","at":0,"from":-1,"to":1}]}`,
	}
	for name, data := range cases {
		if _, err := Parse([]byte(data)); !errors.Is(err, errdefs.ErrBadConfig) {
			t.Errorf("%s: err = %v, want ErrBadConfig", name, err)
		}
	}
}

func TestActiveWindow(t *testing.T) {
	f := &Fault{At: 2, Duration: 3}
	for _, tc := range []struct {
		at   float64
		want bool
	}{{1.9, false}, {2, true}, {4.9, true}, {5, false}} {
		if got := f.active(tc.at); got != tc.want {
			t.Errorf("active(%g) = %v", tc.at, got)
		}
	}
	perm := &Fault{At: 2} // Duration 0 = permanent
	if perm.active(1) || !perm.active(1e9) {
		t.Error("permanent window wrong")
	}
}

func TestInjectorStragglerAndLink(t *testing.T) {
	plan := &Plan{Faults: []Fault{
		{Kind: Straggler, At: 1, Duration: 2, Device: 0, Factor: 2},
		{Kind: LinkDegrade, At: 0, From: 0, To: 1, Factor: 0.5},
	}}
	in := New(plan, nil)
	if s := in.ComputeScale(0, 0.5); s != 1 {
		t.Errorf("scale before window = %g", s)
	}
	if s := in.ComputeScale(0, 1.5); s != 2 {
		t.Errorf("scale in window = %g", s)
	}
	if s := in.ComputeScale(1, 1.5); s != 1 {
		t.Errorf("scale on other device = %g", s)
	}
	// Link faults are bidirectional.
	if f := in.LinkFactor(1, 0, 5); f != 0.5 {
		t.Errorf("reverse-direction link factor = %g", f)
	}
}

func TestInjectorFlap(t *testing.T) {
	plan := &Plan{Faults: []Fault{
		{Kind: LinkFlap, At: 1, Duration: 2, From: 0, To: 1},
		{Kind: LinkFlap, At: 10, From: 1, To: 2}, // permanent
	}}
	in := New(plan, nil)
	if _, blocked, _ := in.LinkBlocked(0, 1, 0.5); blocked {
		t.Error("blocked before flap")
	}
	until, blocked, perm := in.LinkBlocked(0, 1, 1.5)
	if !blocked || perm || until != 3 {
		t.Errorf("flap: until=%g blocked=%v perm=%v", until, blocked, perm)
	}
	if _, blocked, perm := in.LinkBlocked(2, 1, 11); !blocked || !perm {
		t.Error("permanent flap not reported")
	}
}

func TestInjectorCountDropConsumes(t *testing.T) {
	plan := &Plan{Faults: []Fault{{Kind: MsgDrop, At: 0, From: 0, To: 1, Count: 2}}}
	in := New(plan, nil)
	drops := 0
	for i := 0; i < 5; i++ {
		if in.DropAttempt(0, 1, 1, 42) {
			drops++
		}
	}
	if drops != 2 {
		t.Errorf("count-mode drops = %d, want 2", drops)
	}
}

func TestInjectorProbDropDeterministic(t *testing.T) {
	plan := &Plan{Seed: 11, Faults: []Fault{{Kind: MsgDrop, At: 0, From: 0, To: 1, Prob: 0.5}}}
	run := func() []bool {
		in := New(plan, nil)
		var out []bool
		for key := uint64(0); key < 64; key++ {
			out = append(out, in.DropAttempt(0, 1, 1, key))
		}
		return out
	}
	a, b := run(), run()
	drops := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at %d", i)
		}
		if a[i] {
			drops++
		}
	}
	if drops == 0 || drops == len(a) {
		t.Errorf("p=0.5 over %d messages dropped %d — hash looks degenerate", len(a), drops)
	}
	// A different seed must give a different pattern.
	plan2 := &Plan{Seed: 12, Faults: plan.Faults}
	in2 := New(plan2, nil)
	same := true
	for key := uint64(0); key < 64; key++ {
		if in2.DropAttempt(0, 1, 1, key) != a[key] {
			same = false
		}
	}
	if same {
		t.Error("seed does not influence drop decisions")
	}
}

func TestInjectorCrashAndOOM(t *testing.T) {
	plan := &Plan{Faults: []Fault{
		{Kind: DeviceCrash, At: 5, Device: 2},
		{Kind: DeviceOOM, At: 1, Duration: 1, Device: 0},
	}}
	in := New(plan, nil)
	if _, dead := in.Crashed(2, 4.9); dead {
		t.Error("dead before crash time")
	}
	since, dead := in.Crashed(2, 100)
	if !dead || since != 5 {
		t.Errorf("crash: since=%g dead=%v", since, dead)
	}
	if !in.OOMAt(0, 1.5) {
		t.Error("OOM did not fire in window")
	}
	if in.OOMAt(0, 1.6) {
		t.Error("OOM fired twice")
	}
}

func TestInjectorEmitsObsEvents(t *testing.T) {
	reg := obs.NewRegistry()
	plan := &Plan{Faults: []Fault{{Kind: Straggler, At: 0, Device: 0, Factor: 3}}}
	in := New(plan, reg)
	in.ComputeScale(0, 1)
	in.ComputeScale(0, 2) // second activation must not count again
	snap := reg.Snapshot()
	if got := snap.Counters["fault.injected"]; got != 1 {
		t.Errorf("fault.injected = %g, want 1", got)
	}
}

func TestNilInjectorIsInert(t *testing.T) {
	var in *Injector
	if in.ComputeScale(0, 0) != 1 || in.LinkFactor(0, 1, 0) != 1 || in.DropAttempt(0, 1, 0, 0) {
		t.Error("nil injector injected something")
	}
	if _, dead := in.Crashed(0, 0); dead {
		t.Error("nil injector crashed a device")
	}
	in2 := New(nil, nil)
	if in2.OOMAt(0, 0) || in2.plan != nil {
		t.Error("empty injector injected something")
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load("/nonexistent/faults.json"); err == nil {
		t.Error("want error for missing file")
	}
}
