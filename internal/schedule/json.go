package schedule

import (
	"bytes"
	"encoding/json"
	"fmt"

	"autopipe/internal/errdefs"
)

// This file defines the on-disk JSON form of a Schedule, so schedules can be
// checked in as testdata goldens and validated statically (ParseJSON plus
// CheckDeadlock, in the root fixture test) instead of only by running the
// executor.
//
// The document mirrors the Schedule struct field-for-field; ops encode their
// kind as "F"/"B" and omit the -1 "full micro-batch" half, so a golden reads
// the way the String() rendering does.

type opDoc struct {
	Kind  string `json:"kind"`
	Virt  int    `json:"virt"`
	Micro int    `json:"micro"`
	// Half is 0 or 1 for a sliced forward half; absent means a full
	// micro-batch (Op.Half == -1).
	Half    *int `json:"half,omitempty"`
	NoSend  bool `json:"noSend,omitempty"`
	AggSend bool `json:"aggSend,omitempty"`
}

type scheduleDoc struct {
	Name       string    `json:"name"`
	Devices    int       `json:"devices"`
	VirtStages int       `json:"virtStages"`
	DeviceOf   []int     `json:"deviceOf"`
	NumMicro   int       `json:"numMicro"`
	Chunks     int       `json:"chunks,omitempty"`
	NumSliced  int       `json:"numSliced,omitempty"`
	Ops        [][]opDoc `json:"ops"`
}

// EncodeJSON renders the schedule as indented JSON, the golden format
// consumed by ParseJSON.
func EncodeJSON(s *Schedule) ([]byte, error) {
	doc := scheduleDoc{
		Name:       s.Name,
		Devices:    s.Devices,
		VirtStages: s.VirtStages,
		DeviceOf:   s.DeviceOf,
		NumMicro:   s.NumMicro,
		Chunks:     s.Chunks,
		NumSliced:  s.NumSliced,
		Ops:        make([][]opDoc, len(s.Ops)),
	}
	for d, ops := range s.Ops {
		doc.Ops[d] = make([]opDoc, len(ops))
		for i, op := range ops {
			od := opDoc{Kind: op.Kind.String(), Virt: op.Virt, Micro: op.Micro, NoSend: op.NoSend, AggSend: op.AggSend}
			if op.Half >= 0 {
				h := op.Half
				od.Half = &h
			}
			doc.Ops[d][i] = od
		}
	}
	return json.MarshalIndent(doc, "", "  ")
}

// ParseJSON decodes and validates a JSON-encoded schedule. Unknown fields,
// trailing data, malformed op kinds, and every structural violation
// Schedule.Validate catches (duplicate ops, dangling virtual-stage refs, bad
// micro-batch indices) are rejected with errors wrapping
// errdefs.ErrBadConfig.
func ParseJSON(data []byte) (*Schedule, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var doc scheduleDoc
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("%w: schedule: parse: %v", errdefs.ErrBadConfig, err)
	}
	if dec.More() {
		return nil, fmt.Errorf("%w: schedule: trailing data after document", errdefs.ErrBadConfig)
	}
	s := &Schedule{
		Name:       doc.Name,
		Devices:    doc.Devices,
		VirtStages: doc.VirtStages,
		DeviceOf:   doc.DeviceOf,
		NumMicro:   doc.NumMicro,
		Chunks:     doc.Chunks,
		NumSliced:  doc.NumSliced,
		Ops:        make([][]Op, len(doc.Ops)),
	}
	if s.Chunks == 0 {
		s.Chunks = 1
	}
	for d, ops := range doc.Ops {
		s.Ops[d] = make([]Op, len(ops))
		for i, od := range ops {
			op := Op{Virt: od.Virt, Micro: od.Micro, Half: -1, NoSend: od.NoSend, AggSend: od.AggSend}
			switch od.Kind {
			case "F":
				op.Kind = Fwd
			case "B":
				op.Kind = Bwd
			default:
				return nil, fmt.Errorf("%w: schedule: device %d op %d: bad kind %q (want F or B)", errdefs.ErrBadConfig, d, i, od.Kind)
			}
			if od.Half != nil {
				if *od.Half != 0 && *od.Half != 1 {
					return nil, fmt.Errorf("%w: schedule: device %d op %d: bad half %d (want 0 or 1)", errdefs.ErrBadConfig, d, i, *od.Half)
				}
				op.Half = *od.Half
			}
			s.Ops[d][i] = op
		}
	}
	if len(s.Ops) != s.Devices {
		return nil, fmt.Errorf("%w: schedule %s: %d op lists for %d devices", errdefs.ErrBadConfig, s.Name, len(s.Ops), s.Devices)
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", errdefs.ErrBadConfig, err)
	}
	return s, nil
}
