package experiments

import (
	"fmt"

	"autopipe/internal/config"
	"autopipe/internal/tableio"
)

// Fig9 reproduces paper Fig. 9: iteration time under different micro-batch
// sizes with a fixed 4-stage pipeline and 8 micro-batches per iteration, for
// Megatron-LM, the Slicer alone, the Planner alone, and full AutoPipe.
// GPT-2 762M runs out of memory at micro-batch 32, so — like the paper — its
// sweep tops out at 24.
func (e Env) Fig9() ([]Point, *tableio.Table, error) {
	var settings []setting
	for _, mc := range []config.Model{config.GPT2_345M(), config.GPT2_762M(), config.BERTLarge()} {
		for _, mbs := range []int{4, 8, 16, 24, 32} {
			settings = append(settings, setting{mc, 4, mbs, 8})
		}
	}
	t := &tableio.Table{
		ID:      "fig9",
		Title:   "Iteration time (ms) vs micro-batch size; 4 stages, 8 micro-batches",
		Columns: []string{"Model", "Mbs", SeriesMegatron, SeriesSlicer, SeriesPlanner, SeriesAutoPipe, "AutoPipe speedup"},
	}
	t.Note("OOM marks configurations exceeding 24 GB device memory (GPT-2 762M at micro-batch 32, as in the paper)")
	return e.compareTable(t, settings, func(p Point) []string { return iterRow(p, p.Model, fmt.Sprint(p.Mbs)) })
}

// Fig10 reproduces paper Fig. 10: iteration time at different pipeline
// depths with the micro-batch count fixed to twice the depth. Micro-batch
// size is 4 for the GPT-2 models and 16 for BERT-large; GPT-2 762M uses a
// 9-stage pipeline instead of 8 because Megatron-LM needs the depth to
// divide the layer count.
func (e Env) Fig10() ([]Point, *tableio.Table, error) {
	cases := []struct {
		mc     config.Model
		mbs    int
		depths []int
	}{
		{config.GPT2_345M(), 4, []int{2, 4, 8, 12}},
		{config.GPT2_762M(), 4, []int{2, 4, 9, 12}},
		{config.BERTLarge(), 16, []int{2, 4, 8, 12}},
	}
	var settings []setting
	for _, c := range cases {
		for _, depth := range c.depths {
			settings = append(settings, setting{c.mc, depth, c.mbs, 2 * depth})
		}
	}
	t := &tableio.Table{
		ID:      "fig10",
		Title:   "Iteration time (ms) vs pipeline depth; micro-batches = 2 x depth",
		Columns: []string{"Model", "Stages", SeriesMegatron, SeriesSlicer, SeriesPlanner, SeriesAutoPipe, "AutoPipe speedup"},
	}
	return e.compareTable(t, settings, func(p Point) []string { return iterRow(p, p.Model, fmt.Sprint(p.Depth)) })
}

// iterRow renders a Fig. 9/10 row: the key cells, the four methods'
// iteration times, and AutoPipe's speedup over Megatron-LM.
func iterRow(p Point, key ...string) []string {
	row := append(key, cells(p, false, SeriesMegatron, SeriesSlicer, SeriesPlanner, SeriesAutoPipe)...)
	return append(row, speedupCell(p, SeriesMegatron, SeriesAutoPipe))
}
