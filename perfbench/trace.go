package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// call. Spans of one request share Req; Parent is the ID of the span that
// caused this one, or 0 for a root.
type span struct {
	ID     uint64        `json:"id"`
	Parent uint64        `json:"parent,omitempty"`
	Req    uint64        `json:"req"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. It is safe for
// concurrent use: client callers and server handlers record into it at once.
type recorder struct {
	base time.Time
	ids  atomic.Uint64
	mu   sync.Mutex
	all  []span
}

func newRecorder(base time.Time) *recorder { return &recorder{base: base} }

func (r *recorder) now() time.Duration { return time.Since(r.base) }
func (r *recorder) newID() uint64      { return r.ids.Add(1) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.all = append(r.all, s)
	r.mu.Unlock()
}

// timed runs f inside a span and returns the span.
func (r *recorder) timed(name string, req, parent uint64, f func()) span {
	s := span{ID: r.newID(), Parent: parent, Req: req, Name: name, Start: r.now()}
	f()
	s.End = r.now()
	r.add(s)
	return s
}

func (r *recorder) spans() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.all...)
}

// selfTimes maps each span ID to its self time: its duration minus the part
// of its interval that its children cover. Overlapping children are counted
// once, and a child reaching outside its parent counts only inside it.
func selfTimes(spans []span) map[uint64]time.Duration {
	kids := map[uint64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[uint64]time.Duration, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		var covered time.Duration
		cur := s.Start // end of the covered prefix so far
		for _, c := range cs {
			lo, hi := max(c.Start, cur), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		out[s.ID] = s.dur() - covered
	}
	return out
}

// layerRow sums the spans of one name.
type layerRow struct {
	Name        string
	Count       int
	Total, Self time.Duration
}

func summarize(spans []span) []layerRow {
	self := selfTimes(spans)
	rows := map[string]*layerRow{}
	for _, s := range spans {
		row := rows[s.Name]
		if row == nil {
			row = &layerRow{Name: s.Name}
			rows[s.Name] = row
		}
		row.Count++
		row.Total += s.dur()
		row.Self += self[s.ID]
	}
	out := make([]layerRow, 0, len(rows))
	for _, row := range rows {
		out = append(out, *row)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Self > out[j].Self })
	return out
}

func printLayers(w io.Writer, rows []layerRow) {
	fmt.Fprintf(w, "trace: %-20s %8s %12s %12s %10s\n", "span", "count", "total_ms", "self_ms", "self_us/op")
	for _, r := range rows {
		fmt.Fprintf(w, "trace: %-20s %8d %12.3f %12.3f %10.2f\n", r.Name, r.Count, ms(r.Total), ms(r.Self),
			us(r.Self)/float64(r.Count))
	}
}

// writeTrace dumps the environment stamp and every span as JSON.
func writeTrace(path string, env envStamp, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	err = json.NewEncoder(f).Encode(struct {
		Env   envStamp `json:"env"`
		Spans []span   `json:"spans"`
	}{env, spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write trace %s: %w", path, err)
	}
	return nil
}
