package autopipe_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"autopipe"
	"autopipe/internal/fault"
	"autopipe/internal/schedule"
	"autopipe/internal/service"
)

// The fixture manifest: every checked-in JSON artifact — the schedule goldens,
// fault and chaos plans, trace goldens, and the negative fixtures under
// testdata/reject — mapped to the parser that owns its format and the outcome
// that parser must produce. A nil want means the file must be accepted;
// otherwise the parser must reject it with an error matching want under
// errors.Is.
var fixtures = []struct {
	path  string
	parse func([]byte) error
	want  error
}{
	{"internal/exec/testdata/trace_golden.json", parseTrace, nil},
	{"testdata/chaos_basic.json", parseChaos, nil},
	{"testdata/faults_basic.json", parseFaultPlan, nil},
	{"testdata/faults_concurrent.json", parseFaultPlan, nil},
	{"testdata/schedules/1f1b_p4_m8.json", parseSchedule, nil},
	{"testdata/schedules/interleaved_p4_m8_v2.json", parseSchedule, nil},
	{"testdata/schedules/sliced_p4_m8_s2.json", parseSchedule, nil},

	{"testdata/reject/chaos_bad_prob.json", parseChaos, autopipe.ErrBadConfig},
	{"testdata/reject/faults_bad_kind.json", parseFaultPlan, autopipe.ErrBadConfig},
	{"testdata/reject/faults_crash_duplicate.json", parseFaultPlan, errCrashDuplicate},
	{"testdata/reject/faults_crash_unsorted.json", parseFaultPlan, errCrashUnsorted},
	{"testdata/reject/sched_cycle.json", parseSchedule, autopipe.ErrDeadlock},
	{"testdata/reject/sched_dup.json", parseSchedule, autopipe.ErrBadConfig},
}

// TestCheckedInFixtures sends every manifest entry to its parser and checks
// the declared outcome.
func TestCheckedInFixtures(t *testing.T) {
	for _, fx := range fixtures {
		t.Run(fx.path, func(t *testing.T) {
			data, err := os.ReadFile(filepath.FromSlash(fx.path))
			if err != nil {
				t.Fatal(err)
			}
			err = fx.parse(data)
			switch {
			case fx.want == nil && err != nil:
				t.Errorf("rejected: %v", err)
			case fx.want != nil && !errors.Is(err, fx.want):
				t.Errorf("got %v, want a rejection wrapping %q", err, fx.want)
			}
		})
	}
}

// TestFixtureManifestComplete fails on any JSON file under a testdata tree,
// or any BENCH_*.json file at the root, that the manifest does not declare:
// a new fixture must say whether it is accepted or rejected, and no parser
// owns the retired BENCH_*.json format any more.
func TestFixtureManifestComplete(t *testing.T) {
	declared := make(map[string]bool, len(fixtures))
	for _, fx := range fixtures {
		declared[fx.path] = true
	}
	swept := regexp.MustCompile(`^BENCH_[^/]*\.json$|(^|/)testdata/.*\.json$`)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		path = filepath.ToSlash(path)
		if d.IsDir() {
			// bin holds build output; perfbench is a module of its own.
			if name := d.Name(); path != "." && (name[0] == '.' || path == "bin" || path == "perfbench") {
				return filepath.SkipDir
			}
			return nil
		}
		if swept.MatchString(path) && !declared[path] {
			t.Errorf("%s is not declared in the fixture manifest", path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func parseChaos(data []byte) error {
	_, err := service.ParseChaos(data)
	return err
}

// parseSchedule parses a schedule golden and runs the static deadlock check:
// a cycle in the dependency graph means the executor would stall with every
// device blocked.
func parseSchedule(data []byte) error {
	s, err := schedule.ParseJSON(data)
	if err != nil {
		return err
	}
	return s.CheckDeadlock()
}

// A fault plan's same-instant device crashes replay in array order, so the
// decoded slice is the injector's iteration order. A generator that passed
// through a map keyed by device would emit a different order per run, and two
// regenerations of one plan would replay differently. Checked-in plans
// therefore emit each same-instant crash run sorted by device and without
// duplicates. The parser itself accepts any order; the rule binds fixtures.
var (
	errCrashUnsorted  = errors.New("same-instant device crashes not sorted by device")
	errCrashDuplicate = errors.New("duplicate same-instant device crash")
)

func parseFaultPlan(data []byte) error {
	p, err := fault.Parse(data)
	if err != nil {
		return err
	}
	last := make(map[float64]int)
	for _, f := range p.Faults {
		if f.Kind != fault.DeviceCrash {
			continue
		}
		if prev, seen := last[f.At]; seen {
			switch {
			case f.Device == prev:
				return fmt.Errorf("%w: device %d at t=%v", errCrashDuplicate, f.Device, f.At)
			case f.Device < prev:
				return fmt.Errorf("%w: device %d after %d at t=%v", errCrashUnsorted, f.Device, prev, f.At)
			}
		}
		last[f.At] = f.Device
	}
	return nil
}

// parseTrace checks a Chrome trace golden's envelope; exec's golden test
// pins its events byte for byte.
func parseTrace(data []byte) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var doc struct {
		DisplayTimeUnit string            `json:"displayTimeUnit"`
		TraceEvents     []json.RawMessage `json:"traceEvents"`
	}
	if err := dec.Decode(&doc); err != nil {
		return err
	}
	if doc.DisplayTimeUnit != "ms" || len(doc.TraceEvents) == 0 {
		return fmt.Errorf("trace: displayTimeUnit %q with %d events, want ms and at least one", doc.DisplayTimeUnit, len(doc.TraceEvents))
	}
	return nil
}
