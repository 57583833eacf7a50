package experiments

import (
	"context"
	"testing"

	"autopipe/internal/config"
	"autopipe/internal/core"
	"autopipe/internal/obs"
)

// TestPlannerTelemetry checks the planner-telemetry record carries the three
// required facts — candidates evaluated, moves accepted, final predicted
// iteration time — with sane relationships, for every evaluation model.
func TestPlannerTelemetry(t *testing.T) {
	e := DefaultEnv()
	records, table, err := e.PlannerTelemetry()
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 3 {
		t.Fatalf("%d records, want 3", len(records))
	}
	if len(table.Rows) != len(records) {
		t.Errorf("table has %d rows for %d records", len(table.Rows), len(records))
	}
	for _, r := range records {
		if r.Candidates < 1 {
			t.Errorf("%s: %d candidates, want >= 1", r.Model, r.Candidates)
		}
		if r.Accepted < 1 || r.Accepted > r.Candidates {
			t.Errorf("%s: accepted %d of %d candidates", r.Model, r.Accepted, r.Candidates)
		}
		if r.FinalIter <= 0 || r.FinalIter > r.FirstIter {
			t.Errorf("%s: final predicted iter %g, seed %g — search must not regress",
				r.Model, r.FinalIter, r.FirstIter)
		}
		if r.NumSliced < 1 || r.NumSliced >= r.Depth {
			t.Errorf("%s: NumSliced = %d for depth %d", r.Model, r.NumSliced, r.Depth)
		}
		if r.SliceRounds < 1 {
			t.Errorf("%s: slicer took %d rounds, want >= 1", r.Model, r.SliceRounds)
		}
	}
}

// TestTelemetryPublish routes a planner run's telemetry into an obs registry
// and checks the exported names.
func TestTelemetryPublish(t *testing.T) {
	e := DefaultEnv()
	bl, err := e.buildSub(config.GPT2_345M(), 4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.PlanDepthOpts(context.Background(), bl, 4, 16, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	res.Telemetry.Publish(reg, "planner.p4")
	snap := reg.Snapshot()
	if got := snap.Counters["planner.p4.candidates"]; got != float64(res.Telemetry.Candidates) {
		t.Errorf("candidates counter = %g, want %d", got, res.Telemetry.Candidates)
	}
	if got := snap.Counters["planner.p4.accepted"]; got != float64(res.Telemetry.Accepted) {
		t.Errorf("accepted counter = %g, want %d", got, res.Telemetry.Accepted)
	}
	if got := snap.Gauges["planner.p4.final_iter_s"]; got != res.Telemetry.Final {
		t.Errorf("final gauge = %g, want %g", got, res.Telemetry.Final)
	}
	if st := snap.Histograms["planner.p4.convergence_s"]; st.Count != int64(len(res.Telemetry.Convergence)) {
		t.Errorf("convergence histogram has %d samples, want %d", st.Count, len(res.Telemetry.Convergence))
	}
}
