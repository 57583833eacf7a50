package experiments

import (
	"errors"
	"fmt"

	"autopipe/internal/config"
	"autopipe/internal/errdefs"
	"autopipe/internal/model"
	"autopipe/internal/plan"
	"autopipe/internal/tableio"
)

// PlannerCell is one (planner, global batch) measurement of Tables III/IV.
type PlannerCell struct {
	// IterTime is in seconds; Err explains a cell that did not run: a
	// planner that found no memory-feasible plan, or the evaluator's "OOM"
	// and "runtime error" markers. OOM sets the table's OOM marker; any
	// other Err prints as '-'.
	IterTime float64
	Err      string
	OOM      bool
}

// PlannerRow is one (model, mbs, #GPUs, planner) row of Tables III/IV.
type PlannerRow struct {
	Model   string
	Mbs     int
	GPUs    int
	Planner string // "D", "P", or "A"
	Spec    *plan.Spec
	Blocks  *model.Blocks
	Cells   []PlannerCell // one per global batch size
}

// plannerComparison runs the planner roster for each (model, mbs, #GPUs)
// case and evaluates their plans at each global batch size — the paper's
// "applying corresponding algorithms' results to Megatron-LM".
func (e Env) plannerComparison(mc config.Model, mbs int, gpus []int, gbs []int) ([]PlannerRow, error) {
	var rows []PlannerRow
	for _, g := range gpus {
		cl := e.Cluster
		cl.NumGPUs = g
		for _, alg := range planners {
			row := PlannerRow{Model: mc.Name, Mbs: mbs, GPUs: g, Planner: alg.short}
			for _, b := range gbs {
				run := config.Run{MicroBatch: mbs, GlobalBatch: b, Checkpoint: true}
				spec, bl, err := e.plan(alg.name, mc, run, cl, false)
				if errors.Is(err, errdefs.ErrInfeasible) {
					// A planner that refuses memory-infeasible configurations
					// at planning time reports the cell as OOM.
					row.Cells = append(row.Cells, PlannerCell{Err: err.Error(), OOM: true})
					continue
				}
				if err != nil {
					return nil, err
				}
				res, err := plan.Evaluate(spec, bl, run, cl)
				if err != nil {
					return nil, err
				}
				row.Spec, row.Blocks = spec, bl
				if fail := res.Failure(); fail != nil {
					row.Cells = append(row.Cells, PlannerCell{Err: res.Err, OOM: errors.Is(fail, errdefs.ErrOOM)})
					continue
				}
				row.Cells = append(row.Cells, PlannerCell{IterTime: res.IterTime})
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

func plannerTable(id, title string, gbs []int, rows []PlannerRow) *tableio.Table {
	cols := []string{"Model", "Mbs", "# of GPUs", "Alg."}
	for _, b := range gbs {
		cols = append(cols, fmt.Sprintf("Gbs=%d", b))
	}
	t := &tableio.Table{ID: id, Title: title, Columns: cols}
	for _, r := range rows {
		cells := []string{r.Model, fmt.Sprint(r.Mbs), fmt.Sprint(r.GPUs), r.Planner}
		for _, c := range r.Cells {
			switch {
			case c.Err == "":
				cells = append(cells, tableio.Ms(c.IterTime))
			case c.OOM:
				cells = append(cells, "OOM")
			default:
				cells = append(cells, "-")
			}
		}
		t.AddRow(cells...)
	}
	t.Note("D = DAPPLE Planner, P = Piper, A = AutoPipe Planner; times are ms per iteration; '-' marks a runtime error")
	return t
}

// Table3 reproduces paper Table III: planner comparison with low memory
// demand (GPT-2 345M, micro-batch 4, 4 and 16 GPUs).
func (e Env) Table3() ([]PlannerRow, *tableio.Table, error) {
	gbs := []int{128, 256, 512}
	rows, err := e.plannerComparison(config.GPT2_345M(), 4, []int{4, 16}, gbs)
	if err != nil {
		return nil, nil, err
	}
	return rows, plannerTable("table3", "Planner comparison with low memory demand", gbs, rows), nil
}

// Table4 reproduces paper Table IV: planner comparison with high memory
// demand (GPT-2 345M at micro-batch 32 and GPT-2 1.3B at micro-batch 16,
// each on 4 and 8 GPUs).
func (e Env) Table4() ([]PlannerRow, *tableio.Table, error) {
	gbs := []int{512, 1024, 2048}
	rows345, err := e.plannerComparison(config.GPT2_345M(), 32, []int{4, 8}, gbs)
	if err != nil {
		return nil, nil, err
	}
	rows13, err := e.plannerComparison(config.GPT2_1_3B(), 16, []int{4, 8}, gbs)
	if err != nil {
		return nil, nil, err
	}
	rows := append(rows345, rows13...)
	return rows, plannerTable("table4", "Planner comparison with high memory demand", gbs, rows), nil
}
