// Command experiments regenerates the paper's evaluation tables and figures
// (Tables I-IV, Figs. 9-14) on the simulated testbed.
//
// Usage:
//
//	experiments [-exp all|ID[,ID...]] [-timeout 10m] [-csv dir]
//
// where each ID is one of table1, table2, fig9, fig10, fig11, table3,
// table4, fig12, fig13, fig14a, fig14b, abl-granularity, abl-heuristic,
// abl-slicing, abl-schedule, abl-interleaved, or telemetry ("all" runs the
// 17 in that order).
//
// Each plan search runs serially on one goroutine, so the plan does not
// depend on the machine's core count.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"autopipe/internal/cliutil"
	"autopipe/internal/experiments"
	"autopipe/internal/tableio"
)

func main() {
	exp := flag.String("exp", "all", "experiment id to run (comma-separated), or 'all'")
	csvDir := flag.String("csv", "", "directory to also write per-experiment CSV files into")
	pf := cliutil.RegisterPlanner(flag.CommandLine)
	prof := cliutil.RegisterProfile(flag.CommandLine)
	flag.Parse()

	stopProf, err := prof.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}

	env := experiments.DefaultEnv()
	ctx, cancel := pf.Context()
	defer cancel()
	env.Ctx = ctx
	runners := map[string]func() (*tableio.Table, error){
		"table1": func() (*tableio.Table, error) { return env.Table1() },
		"table2": func() (*tableio.Table, error) { return env.Table2() },
		"table3": func() (*tableio.Table, error) { _, t, err := env.Table3(); return t, err },
		"table4": func() (*tableio.Table, error) { _, t, err := env.Table4(); return t, err },
		"fig9":   func() (*tableio.Table, error) { _, t, err := env.Fig9(); return t, err },
		"fig10":  func() (*tableio.Table, error) { _, t, err := env.Fig10(); return t, err },
		"fig11":  func() (*tableio.Table, error) { _, t, err := env.Fig11(); return t, err },
		"fig12":  func() (*tableio.Table, error) { _, t, err := env.Fig12(); return t, err },
		"fig13":  func() (*tableio.Table, error) { _, t, err := env.Fig13(); return t, err },
		"fig14a": func() (*tableio.Table, error) { _, t, err := env.Fig14a(); return t, err },
		"fig14b": func() (*tableio.Table, error) { _, t, err := env.Fig14b(); return t, err },
		// Ablations beyond the paper (DESIGN.md §6).
		"abl-granularity": func() (*tableio.Table, error) { _, t, err := env.AblationGranularity(); return t, err },
		"abl-heuristic":   func() (*tableio.Table, error) { _, t, err := env.AblationHeuristic(); return t, err },
		"abl-slicing":     func() (*tableio.Table, error) { _, t, err := env.AblationSlicingCount(); return t, err },
		"abl-schedule":    func() (*tableio.Table, error) { _, t, err := env.AblationSchedules(); return t, err },
		"abl-interleaved": func() (*tableio.Table, error) { _, t, err := env.AblationInterleaved(); return t, err },
		// Planner/Slicer search telemetry (beyond the paper; DESIGN.md §7).
		"telemetry": func() (*tableio.Table, error) { _, t, err := env.PlannerTelemetry(); return t, err },
	}
	order := []string{"table1", "table2", "fig9", "fig10", "fig11", "table3", "table4", "fig12", "fig13", "fig14a", "fig14b",
		"abl-granularity", "abl-heuristic", "abl-slicing", "abl-schedule", "abl-interleaved", "telemetry"}

	var ids []string
	if *exp == "all" {
		ids = order
	} else {
		for _, id := range strings.Split(*exp, ",") {
			id = strings.TrimSpace(id)
			if _, ok := runners[id]; !ok {
				fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q (want one of %s)\n", id, strings.Join(order, ", "))
				os.Exit(2)
			}
			ids = append(ids, id)
		}
	}

	for _, id := range ids {
		t, err := runners[id]()
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", id, err)
			os.Exit(1)
		}
		if err := t.Render(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		if *csvDir != "" {
			if err := os.MkdirAll(*csvDir, 0o755); err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
				os.Exit(1)
			}
			f, err := os.Create(filepath.Join(*csvDir, id+".csv"))
			if err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
				os.Exit(1)
			}
			if err := t.WriteCSV(f); err != nil {
				f.Close()
				fmt.Fprintln(os.Stderr, "experiments:", err)
				os.Exit(1)
			}
			f.Close()
		}
	}
	if err := stopProf(); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}
