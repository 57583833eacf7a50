package schedule

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"autopipe/internal/errdefs"
)

func loadGolden(t *testing.T, name string) *Schedule {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "testdata", "schedules", name))
	if err != nil {
		t.Fatal(err)
	}
	s, err := ParseJSON(data)
	if err != nil {
		t.Fatalf("golden %s does not parse: %v", name, err)
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

// TestDependenciesMirrorsCheckDeadlock pins the refactor invariant: the
// exported dependency model and CheckDeadlock are the same code path, so a
// schedule is acyclic exactly when its graph is.
func TestDependenciesMirrorsCheckDeadlock(t *testing.T) {
	for _, name := range []string{"1f1b_p4_m8.json", "sliced_p4_m8_s2.json", "interleaved_p4_m8_v2.json"} {
		s := loadGolden(t, name)
		g, err := s.Dependencies()
		if err != nil {
			t.Fatalf("%s: Dependencies: %v", name, err)
		}
		if err := g.Acyclic(); err != nil {
			t.Errorf("%s: golden should be acyclic: %v", name, err)
		}
		if err := s.CheckDeadlock(); err != nil {
			t.Errorf("%s: CheckDeadlock disagrees with Acyclic: %v", name, err)
		}
		total := 0
		for _, ops := range s.Ops {
			total += len(ops)
		}
		if g.NumOps() != total {
			t.Errorf("%s: graph has %d ops, schedule has %d", name, g.NumOps(), total)
		}
		// ID/Ref round-trip over every op.
		for d := range s.Ops {
			for i := range s.Ops[d] {
				ref := OpRef{d, i}
				if got := g.Ref(g.ID(ref)); got != ref {
					t.Fatalf("%s: ID/Ref round-trip: %v -> %v", name, ref, got)
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
	s := loadGolden(t, "sliced_p4_m8_s2.json")
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

// TestCheckDeadlockGoldenRedirects exercises the static deadlock check
// against the checked-in interleaved and sliced goldens under mutated
// NoSend/AggSend redirects — the schedule surface slicing rewrites. Each
// mutation must be classified with a typed error, never accepted and never
// an untyped failure.
func TestCheckDeadlockGoldenRedirects(t *testing.T) {
	t.Run("sliced/orphan-nosend", func(t *testing.T) {
		// Stripping AggSend from the sibling leaves the NoSend half's payload
		// with no carrier: structurally broken, ErrBadConfig.
		s := loadGolden(t, "sliced_p4_m8_s2.json")
		d, i := findOp(t, s, func(op Op) bool { return op.AggSend })
		s.Ops[d][i].AggSend = false
		if err := s.CheckDeadlock(); !errors.Is(err, errdefs.ErrBadConfig) {
			t.Errorf("orphaned NoSend half: got %v, want ErrBadConfig", err)
		}
	})

	t.Run("sliced/nosend-both-halves", func(t *testing.T) {
		// Marking the AggSend op NoSend as well parks both halves forever.
		s := loadGolden(t, "sliced_p4_m8_s2.json")
		d, i := findOp(t, s, func(op Op) bool { return op.AggSend })
		s.Ops[d][i].AggSend = false
		s.Ops[d][i].NoSend = true
		if err := s.CheckDeadlock(); !errors.Is(err, errdefs.ErrBadConfig) {
			t.Errorf("NoSend pair with no carrier: got %v, want ErrBadConfig", err)
		}
	})

	t.Run("sliced/redirect-cycle", func(t *testing.T) {
		// Redirecting a warmup half's payload onto a sibling that issues
		// AFTER the downstream consumer's device needs it creates a cycle:
		// move the aggregated send behind the backward that (transitively)
		// needs its activation. We synthesize this by swapping the AggSend
		// onto the *first* half and NoSend onto the second, then moving the
		// pair's aggregated carrier to the end of the device's issue order.
		s := loadGolden(t, "sliced_p4_m8_s2.json")
		d, i := findOp(t, s, func(op Op) bool { return op.AggSend })
		ops := s.Ops[d]
		agg := ops[i]
		copy(ops[i:], ops[i+1:])
		ops[len(ops)-1] = agg
		err := s.CheckDeadlock()
		if !errors.Is(err, errdefs.ErrDeadlock) {
			t.Errorf("carrier issued after its consumers: got %v, want ErrDeadlock", err)
		}
	})

	t.Run("interleaved/clean", func(t *testing.T) {
		s := loadGolden(t, "interleaved_p4_m8_v2.json")
		if err := s.CheckDeadlock(); err != nil {
			t.Fatalf("interleaved golden: %v", err)
		}
	})

	t.Run("interleaved/nosend-without-slicing", func(t *testing.T) {
		// NoSend on an unsliced interleaved forward has no sibling at all.
		s := loadGolden(t, "interleaved_p4_m8_v2.json")
		d, i := findOp(t, s, func(op Op) bool { return op.Kind == Fwd && op.Virt == 1 })
		s.Ops[d][i].NoSend = true
		if err := s.CheckDeadlock(); !errors.Is(err, errdefs.ErrBadConfig) {
			t.Errorf("interleaved NoSend with no sibling: got %v, want ErrBadConfig", err)
		}
	})

	t.Run("interleaved/swapped-issue-order", func(t *testing.T) {
		// Reversing one device's issue order makes its first op a backward
		// that needs a gradient that can never be produced: a cycle through
		// the issue-order edges.
		s := loadGolden(t, "interleaved_p4_m8_v2.json")
		ops := s.Ops[1]
		for a, b := 0, len(ops)-1; a < b; a, b = a+1, b-1 {
			ops[a], ops[b] = ops[b], ops[a]
		}
		if err := s.CheckDeadlock(); !errors.Is(err, errdefs.ErrDeadlock) {
			t.Errorf("reversed device issue order: got %v, want ErrDeadlock", err)
		}
	})
}
