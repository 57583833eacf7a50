package experiments

import (
	"fmt"

	"autopipe/internal/config"
	"autopipe/internal/tableio"
)

// Fig14a reproduces paper Fig. 14(a): startup overhead versus micro-batch
// size on a 4-stage GPT-2 345M pipeline. The interleaved schedule runs out
// of memory at micro-batch 32.
func (e Env) Fig14a() ([]Point, *tableio.Table, error) {
	var settings []setting
	for _, mbs := range []int{4, 8, 16, 32} {
		settings = append(settings, setting{config.GPT2_345M(), 4, mbs, 8})
	}
	t := &tableio.Table{
		ID:      "fig14a",
		Title:   "Startup overhead (ms) vs micro-batch size; GPT-2 345M, 4 stages",
		Columns: []string{"Mbs", SeriesMegatron, SeriesInterleaved, SeriesSlicer, SeriesAutoPipe},
	}
	return e.compareTable(t, settings, func(p Point) []string { return startupRow(p, fmt.Sprint(p.Mbs)) })
}

// Fig14b reproduces paper Fig. 14(b): startup overhead versus pipeline depth
// at micro-batch size 4. The interleaved schedule cannot run depths whose
// per-stage layer count does not split into two chunks (X), e.g. 8 stages of
// 3 layers for the 24-layer GPT-2 345M.
func (e Env) Fig14b() ([]Point, *tableio.Table, error) {
	var settings []setting
	for _, depth := range []int{2, 4, 8, 12} {
		settings = append(settings, setting{config.GPT2_345M(), depth, 4, 2 * depth})
	}
	t := &tableio.Table{
		ID:      "fig14b",
		Title:   "Startup overhead (ms) vs pipeline depth; GPT-2 345M, micro-batch 4",
		Columns: []string{"Stages", SeriesMegatron, SeriesInterleaved, SeriesSlicer, SeriesAutoPipe},
	}
	return e.compareTable(t, settings, func(p Point) []string { return startupRow(p, fmt.Sprint(p.Depth)) })
}

// startupRow renders a Fig. 14 row: the key cell and the startup overheads.
// AutoPipe's sits slightly above the Slicer's because balancing moves load
// toward earlier stages (the effect the paper notes in §IV-E-2).
func startupRow(p Point, key string) []string {
	return append([]string{key}, cells(p, true, SeriesMegatron, SeriesInterleaved, SeriesSlicer, SeriesAutoPipe)...)
}
