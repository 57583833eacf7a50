package exec

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"autopipe/internal/errdefs"
	"autopipe/internal/schedule"
)

// chromeEvent is one entry of the Chrome trace-event format ("traceEvents"),
// loadable in chrome://tracing or Perfetto.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   int64          `json:"ts"`            // microseconds
	Dur  int64          `json:"dur,omitempty"` // microseconds
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	ID   int            `json:"id,omitempty"` // flow binding
	BP   string         `json:"bp,omitempty"` // flow binding point
	Args map[string]any `json:"args,omitempty"`
}

// TraceOptions enriches WriteChromeTraceWith beyond the default timeline.
type TraceOptions struct {
	// Ledger, with Schedule, adds per-device live-memory counter tracks.
	Ledger *MemoryLedger
	// Schedule is required when Ledger is set.
	Schedule *schedule.Schedule
}

// WriteChromeTraceWith emits the executed timeline in the Chrome trace-event
// JSON format: one named thread per device, phase-categorized complete
// events for every op, flow arrows connecting each cross-stage send to its
// consumer(s), counter tracks for per-link in-flight messages, and the
// optional extras in opts. Events are sorted by (pid, tid, ts) with metadata
// first, and the document carries displayTimeUnit "ms". Open the file in
// chrome://tracing or ui.perfetto.dev.
func (r *Result) WriteChromeTraceWith(w io.Writer, opts TraceOptions) error {
	events := []chromeEvent{
		{Name: "process_name", Ph: "M", Args: map[string]any{"name": "pipeline cluster"}},
	}
	for d := range r.Traces {
		events = append(events,
			chromeEvent{Name: "thread_name", Ph: "M", TID: d, Args: map[string]any{"name": fmt.Sprintf("device %d", d)}},
			chromeEvent{Name: "thread_sort_index", Ph: "M", TID: d, Args: map[string]any{"sort_index": d}},
		)
	}

	type key struct {
		kind  schedule.OpKind
		virt  int
		micro int
		half  int
	}
	byOp := map[key]OpTrace{}
	for d, traces := range r.Traces {
		ops := make([]schedule.Op, len(traces))
		for i, tr := range traces {
			ops[i] = tr.Op
			byOp[key{tr.Op.Kind, tr.Op.Virt, tr.Op.Micro, tr.Op.Half}] = tr
		}
		for i, ph := range schedule.PhasesOf(ops) {
			tr := traces[i]
			cat := "fwd"
			if tr.Op.Kind == schedule.Bwd {
				cat = "bwd"
			}
			events = append(events, chromeEvent{
				Name: tr.Op.String(),
				Cat:  cat + "," + ph.String(),
				Ph:   "X",
				TS:   int64(tr.Start * 1e6),
				Dur:  int64((tr.End - tr.Start) * 1e6),
				TID:  d,
				Args: map[string]any{"micro": tr.Op.Micro, "virt": tr.Op.Virt, "phase": ph.String()},
			})
		}
	}

	// Flow arrows: one per (message, consumer). A consumer is the matching
	// half downstream; an aggregated send (its sibling half produced no
	// message of its own) additionally feeds the sibling half's consumer.
	sent := map[key]bool{}
	for _, m := range r.Msgs {
		sent[key{m.Kind, m.Virt, m.Micro, m.Half}] = true
	}
	flowID := 0
	for _, m := range r.Msgs {
		destVirt := m.Virt + 1
		if m.Kind == schedule.Bwd {
			destVirt = m.Virt - 1
		}
		prod, ok := byOp[key{m.Kind, m.Virt, m.Micro, m.Half}]
		if !ok {
			continue
		}
		halves := []int{m.Half}
		if m.Half >= 0 && !sent[key{m.Kind, m.Virt, m.Micro, (m.Half + 1) % 2}] {
			halves = append(halves, (m.Half+1)%2)
		}
		for _, h := range halves {
			cons, ok := byOp[key{m.Kind, destVirt, m.Micro, h}]
			if !ok {
				continue
			}
			flowID++
			events = append(events,
				chromeEvent{Name: "xfer", Cat: "comm", Ph: "s", TS: int64(prod.End * 1e6), TID: m.From, ID: flowID,
					Args: map[string]any{"bytes": m.Bytes}},
				chromeEvent{Name: "xfer", Cat: "comm", Ph: "f", BP: "e", TS: int64(cons.Start * 1e6), TID: m.To, ID: flowID},
			)
		}
	}

	events = append(events, linkCounterEvents(r.Msgs)...)

	if opts.Ledger != nil && opts.Schedule != nil {
		timeline, err := opts.Ledger.Timeline(opts.Schedule, r)
		if err != nil {
			return err
		}
		for d, samples := range timeline {
			name := fmt.Sprintf("mem dev %d", d)
			for _, smp := range samples {
				events = append(events, chromeEvent{
					Name: name, Ph: "C", TS: int64(smp.At * 1e6), TID: d,
					Args: map[string]any{"bytes": smp.Bytes},
				})
			}
		}
	}

	sortEventsForTrace(events)
	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{
		"displayTimeUnit": "ms",
		"traceEvents":     events,
	})
}

// linkCounterEvents renders each directed link's in-flight message count as
// a counter track.
func linkCounterEvents(msgs []MsgTrace) []chromeEvent {
	type edge struct {
		at    float64
		delta int
	}
	links := map[[2]int][]edge{}
	for _, m := range msgs {
		if m.From == m.To {
			continue
		}
		k := [2]int{m.From, m.To}
		links[k] = append(links[k], edge{m.Start, +1}, edge{m.Free, -1})
	}
	var keys [][2]int
	for k := range links {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	var events []chromeEvent
	for _, k := range keys {
		edges := links[k]
		sort.SliceStable(edges, func(i, j int) bool {
			if edges[i].at != edges[j].at {
				return edges[i].at < edges[j].at
			}
			return edges[i].delta < edges[j].delta // frees first
		})
		name := fmt.Sprintf("link %d->%d", k[0], k[1])
		inflight := 0
		for _, e := range edges {
			inflight += e.delta
			events = append(events, chromeEvent{
				Name: name, Ph: "C", TS: int64(e.at * 1e6), TID: k[0],
				Args: map[string]any{"inflight": inflight},
			})
		}
	}
	return events
}

// sortEventsForTrace orders events by (pid, tid, ts) with metadata first and
// a fixed phase rank for determinism at equal timestamps.
func sortEventsForTrace(events []chromeEvent) {
	rank := func(ph string) int {
		switch ph {
		case "M":
			return 0
		case "C":
			return 1
		case "X":
			return 2
		case "s":
			return 3
		default:
			return 4
		}
	}
	sort.SliceStable(events, func(i, j int) bool {
		a, b := events[i], events[j]
		if a.PID != b.PID {
			return a.PID < b.PID
		}
		if a.TID != b.TID {
			return a.TID < b.TID
		}
		if ra, rb := rank(a.Ph), rank(b.Ph); (ra == 0) != (rb == 0) {
			return ra == 0 // metadata leads its thread regardless of ts
		}
		if a.TS != b.TS {
			return a.TS < b.TS
		}
		return rank(a.Ph) < rank(b.Ph)
	})
}

// CriticalPath reconstructs the critical path of an executed schedule from
// the trace: starting at the op that ends last, it repeatedly steps to the
// predecessor whose completion the current op was waiting on — the previous
// op on the same device if the device was busy until this op's start,
// otherwise the producer of the op's cross-stage input. It is the executed
// counterpart of the analytic simulator's critical path (paper §III-B) and
// the tests check the two agree on plain 1F1B pipelines.
func (r *Result) CriticalPath(s *schedule.Schedule) ([]OpTrace, error) {
	type key struct {
		kind  schedule.OpKind
		virt  int
		micro int
		half  int
	}
	byOp := map[key]OpTrace{}
	prevOn := map[int][]OpTrace{} // device -> issue order
	for d, traces := range r.Traces {
		for _, tr := range traces {
			byOp[key{tr.Op.Kind, tr.Op.Virt, tr.Op.Micro, tr.Op.Half}] = tr
			prevOn[d] = append(prevOn[d], tr)
		}
	}
	var last OpTrace
	found := false
	for _, traces := range r.Traces {
		for _, tr := range traces {
			if !found || tr.End > last.End {
				last, found = tr, true
			}
		}
	}
	if !found {
		return nil, fmt.Errorf("%w: exec: empty trace", errdefs.ErrBadConfig)
	}

	var rev []OpTrace
	cur := last
	for {
		rev = append(rev, cur)
		// Candidate predecessors: the previous op on the same device and the
		// cross-stage producer. The one that finished later is the binding
		// dependency; ties resolve toward the higher stage, matching the
		// analytic simulator's uniqueness rule.
		var candidates []OpTrace
		list := prevOn[cur.Device]
		for i := range list {
			if list[i] == cur && i > 0 {
				candidates = append(candidates, list[i-1])
			}
		}
		var producer key
		hasProducer := true
		switch {
		case cur.Op.Kind == schedule.Fwd && cur.Op.Virt > 0:
			producer = key{schedule.Fwd, cur.Op.Virt - 1, cur.Op.Micro, cur.Op.Half}
		case cur.Op.Kind == schedule.Bwd && cur.Op.Virt < s.VirtStages-1:
			producer = key{schedule.Bwd, cur.Op.Virt + 1, cur.Op.Micro, cur.Op.Half}
		default:
			hasProducer = false
		}
		if hasProducer {
			p, ok := byOp[producer]
			if !ok {
				// A half consumed via an aggregated send: the sibling half's
				// op carried the payload.
				producer.half = (producer.half + 1) % 2
				p, ok = byOp[producer]
			}
			if ok {
				candidates = append(candidates, p)
			}
		}
		if len(candidates) == 0 {
			reverse(rev)
			return rev, nil
		}
		best := candidates[0]
		for _, c := range candidates[1:] {
			if c.End > best.End || (c.End == best.End && cur.Op.Kind == schedule.Bwd && c.Op.Virt > best.Op.Virt) {
				best = c
			}
		}
		cur = best
	}
}

func reverse(ops []OpTrace) {
	for i, j := 0, len(ops)-1; i < j; i, j = i+1, j-1 {
		ops[i], ops[j] = ops[j], ops[i]
	}
}
