package schedule

import (
	"errors"
	"testing"

	"autopipe/internal/errdefs"
)

// must returns a generator's schedule; the generators reject only bad shapes,
// which these tests never pass.
func must(s *Schedule, err error) *Schedule {
	if err != nil {
		panic(err)
	}
	return s
}

// findOp returns the device/index of the first op matching the predicate.
func findOp(t *testing.T, s *Schedule, match func(Op) bool) (int, int) {
	t.Helper()
	for d, ops := range s.Ops {
		for i, op := range ops {
			if match(op) {
				return d, i
			}
		}
	}
	t.Fatal("no op matches predicate")
	return 0, 0
}

// TestDepGraphIDRef checks the graph's op numbering on the 1F1B, sliced and
// interleaved shapes: it covers every op, and ID and Ref are inverses.
func TestDepGraphIDRef(t *testing.T) {
	for _, s := range []*Schedule{
		must(OneFOneB(4, 8)),
		must(Sliced(4, 8, 2)),
		must(Interleaved(4, 8, 2)),
	} {
		g, err := s.Dependencies()
		if err != nil {
			t.Fatalf("%s: Dependencies: %v", s.Name, err)
		}
		total := 0
		for _, ops := range s.Ops {
			total += len(ops)
		}
		if g.NumOps() != total {
			t.Errorf("%s: graph has %d ops, schedule has %d", s.Name, g.NumOps(), total)
		}
		for d := range s.Ops {
			for i := range s.Ops[d] {
				ref := OpRef{d, i}
				if got := g.Ref(g.ID(ref)); got != ref {
					t.Fatalf("%s: ID/Ref round-trip: %v -> %v", s.Name, ref, got)
				}
			}
		}
	}
}

// dataPreds returns op id's data dependencies: its Preds without the
// same-device issue-order edge, which Preds lists first for every op but a
// device's first.
func dataPreds(g *DepGraph, id int) []int {
	if g.Ref(id).Index > 0 {
		return g.Preds(id)[1:]
	}
	return g.Preds(id)
}

// TestDepGraphEdges spot-checks the dependency edges the runtime sanitizer
// replays: cross-stage activation flow, the backward stash, and the NoSend
// redirect onto the aggregating sibling.
func TestDepGraphEdges(t *testing.T) {
	s := must(Sliced(4, 8, 2))
	g, err := s.Dependencies()
	if err != nil {
		t.Fatal(err)
	}
	// A downstream forward consuming a NoSend half must depend on the
	// AggSend sibling, never on the NoSend op itself (the payload travels
	// with the aggregated send). Same-stage stash edges are exempt: a
	// backward's stash dependency is compute, not a message.
	for id := 0; id < g.NumOps(); id++ {
		op := g.Op(id)
		if op.Kind != Fwd {
			continue
		}
		for _, p := range dataPreds(g, id) {
			if g.Op(p).NoSend {
				t.Errorf("forward %v depends on NoSend producer %v; the edge must redirect to the AggSend sibling",
					op, g.Op(p))
			}
		}
	}
	// A backward always carries its own stage's forward stash dependency.
	d, i := findOp(t, s, func(op Op) bool { return op.Kind == Bwd && op.Virt == 2 })
	bwd := g.ID(OpRef{d, i})
	stash := false
	for _, p := range dataPreds(g, bwd) {
		pOp := g.Op(p)
		if pOp.Kind == Fwd && pOp.Virt == 2 && pOp.Micro == g.Op(bwd).Micro {
			stash = true
		}
	}
	if !stash {
		t.Errorf("backward %v has no forward-stash dependency: preds %v", g.Op(bwd), dataPreds(g, bwd))
	}
}

// TestDependenciesRedirects mutates the NoSend/AggSend redirects of the
// sliced and interleaved shapes, the schedule surface slicing rewrites. A
// NoSend payload that no AggSend sibling carries must be rejected with
// ErrBadConfig, never accepted. Redirects that build without error but form
// a cycle are the executor's to reject: exec's TestRunDetectsDependencyCycles.
func TestDependenciesRedirects(t *testing.T) {
	t.Run("sliced/orphan-nosend", func(t *testing.T) {
		// Stripping AggSend from the sibling leaves the NoSend half's payload
		// with no carrier.
		s := must(Sliced(4, 8, 2))
		d, i := findOp(t, s, func(op Op) bool { return op.AggSend })
		s.Ops[d][i].AggSend = false
		if _, err := s.Dependencies(); !errors.Is(err, errdefs.ErrBadConfig) {
			t.Errorf("orphaned NoSend half: got %v, want ErrBadConfig", err)
		}
	})

	t.Run("sliced/nosend-both-halves", func(t *testing.T) {
		// Marking the AggSend op NoSend as well parks both halves forever.
		s := must(Sliced(4, 8, 2))
		d, i := findOp(t, s, func(op Op) bool { return op.AggSend })
		s.Ops[d][i].AggSend = false
		s.Ops[d][i].NoSend = true
		if _, err := s.Dependencies(); !errors.Is(err, errdefs.ErrBadConfig) {
			t.Errorf("NoSend pair with no carrier: got %v, want ErrBadConfig", err)
		}
	})

	t.Run("two-stage/orphan-nosend", func(t *testing.T) {
		// A hand-built pair whose NoSend half's sibling does not aggregate.
		s := &Schedule{
			Name: "orphan-nosend", Devices: 2, VirtStages: 2, DeviceOf: []int{0, 1}, NumMicro: 1, Chunks: 1, NumSliced: 1,
			Ops: [][]Op{
				{{Kind: Fwd, Virt: 0, Micro: 0, Half: 0, NoSend: true}, {Kind: Fwd, Virt: 0, Micro: 0, Half: 1}, {Kind: Bwd, Virt: 0, Micro: 0, Half: -1}},
				{{Kind: Fwd, Virt: 1, Micro: 0, Half: 0}, {Kind: Fwd, Virt: 1, Micro: 0, Half: 1}, {Kind: Bwd, Virt: 1, Micro: 0, Half: -1}},
			},
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("orphan schedule should be structurally valid: %v", err)
		}
		if _, err := s.Dependencies(); !errors.Is(err, errdefs.ErrBadConfig) {
			t.Errorf("orphan NoSend: got %v, want ErrBadConfig", err)
		}
	})

	t.Run("interleaved/clean", func(t *testing.T) {
		s := must(Interleaved(4, 8, 2))
		if _, err := s.Dependencies(); err != nil {
			t.Fatalf("interleaved schedule: %v", err)
		}
	})

	t.Run("interleaved/nosend-without-slicing", func(t *testing.T) {
		// NoSend on an unsliced interleaved forward has no sibling at all.
		s := must(Interleaved(4, 8, 2))
		d, i := findOp(t, s, func(op Op) bool { return op.Kind == Fwd && op.Virt == 1 })
		s.Ops[d][i].NoSend = true
		if _, err := s.Dependencies(); !errors.Is(err, errdefs.ErrBadConfig) {
			t.Errorf("interleaved NoSend with no sibling: got %v, want ErrBadConfig", err)
		}
	})
}
