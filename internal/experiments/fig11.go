package experiments

import (
	"fmt"

	"autopipe/internal/config"
	"autopipe/internal/sim"
	"autopipe/internal/tableio"
)

// Fig11Point compares the planner's analytic simulator against an "actual"
// executor run for one Table II scheme.
type Fig11Point struct {
	SchemeID int
	// Simulated and Actual are per-micro-batch execution times in seconds.
	Simulated float64
	Actual    float64
}

// Fig11 reproduces paper Fig. 11: the pipeline simulator's per-micro-batch
// execution time versus the actual run, across the seven GPT-2 345M
// partition schemes of Table II. The executor charges kernel-launch
// overheads, link latency/serialization, and deterministic jitter that the
// analytic simulator deliberately omits, so the actual curve sits at a
// stable offset above the simulated one while both follow the same trend —
// the property that makes planning on simulator output sound.
func (e Env) Fig11() ([]Fig11Point, *tableio.Table, error) {
	const m, mbs = 8, 4
	bl, err := e.buildSub(config.GPT2_345M(), mbs)
	if err != nil {
		return nil, nil, err
	}
	var points []Fig11Point
	t := &tableio.Table{
		ID:      "fig11",
		Title:   "Simulator vs actual per-micro-batch time (ms), Table II schemes",
		Columns: []string{"Partition ID", "Simulator", "Actual", "Gap"},
	}
	for _, s := range Table2Schemes() {
		part, err := SchemePartition(s, bl.Len())
		if err != nil {
			return nil, nil, err
		}
		sr, err := sim.SimulateProfile(part.Profile(bl, m))
		if err != nil {
			return nil, nil, err
		}
		// The "actual" run: the executor with launch overhead and ±2%
		// deterministic jitter standing in for the hardware testbed.
		ar, err := e.runPartition(bl, part, m, 0, 0.02)
		if err != nil {
			return nil, nil, err
		}
		p := Fig11Point{
			SchemeID:  s.ID,
			Simulated: sr.IterTime / float64(m),
			Actual:    ar.IterTime / float64(m),
		}
		points = append(points, p)
		t.AddRow(fmt.Sprint(s.ID), tableio.Ms(p.Simulated), tableio.Ms(p.Actual),
			tableio.Ms(p.Actual-p.Simulated))
	}
	return points, t, nil
}
