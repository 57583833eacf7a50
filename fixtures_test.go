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
	"autopipe/client"
	"autopipe/internal/schedule"
)

// The fixture manifest: every checked-in JSON artifact — the schedule goldens,
// chaos plans, trace goldens, and the negative fixtures under
// testdata/reject, daemon submit bodies among them — mapped to the parser
// that owns its format and the outcome
// that parser must produce. A nil want means the file must be accepted;
// otherwise the parser must reject it with an error matching want under
// errors.Is. The chaos plans are the exception: their parser is test code in
// internal/service, so their rows check only well-formed JSON, and
// TestChaosFixtures there checks that chaos_basic.json is accepted and
// reject/chaos_bad_prob.json rejected.
var fixtures = []struct {
	path  string
	parse func([]byte) error
	want  error
}{
	{"internal/exec/testdata/trace_golden.json", parseTrace, nil},
	{"testdata/chaos_basic.json", chaosJSON, nil},
	{"testdata/schedules/1f1b_p4_m8.json", parseSchedule, nil},
	{"testdata/schedules/interleaved_p4_m8_v2.json", parseSchedule, nil},
	{"testdata/schedules/sliced_p4_m8_s2.json", parseSchedule, nil},

	{"testdata/reject/chaos_bad_prob.json", chaosJSON, nil},
	{"testdata/reject/sched_cycle.json", parseSchedule, autopipe.ErrDeadlock},
	{"testdata/reject/sched_dup.json", parseSchedule, autopipe.ErrBadConfig},
	{"testdata/reject/submit_plan_huge_batch.json", parseSubmit, autopipe.ErrBadConfig},
	{"testdata/reject/submit_sim_huge_micro.json", parseSubmit, autopipe.ErrBadConfig},
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

// chaosJSON checks only that a chaos plan is well-formed JSON. The chaos
// parser is test code in internal/service, and its TestChaosFixtures holds
// each chaos fixture to its outcome: chaos_basic.json accepted,
// reject/chaos_bad_prob.json rejected with ErrBadConfig.
func chaosJSON(data []byte) error {
	if !json.Valid(data) {
		return errors.New("chaos plan is not well-formed JSON")
	}
	return nil
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

// parseSubmit decodes a POST /v1/jobs body the way the daemon does — unknown
// fields rejected — and validates it, so a rejected fixture is one the daemon
// answers 400 at submit. internal/service's TestOversizedSubmitRejected posts
// the two oversized bodies to a live daemon.
func parseSubmit(data []byte) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var req client.SubmitRequest
	if err := dec.Decode(&req); err != nil {
		return err
	}
	return req.Validate()
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
