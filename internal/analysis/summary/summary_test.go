package summary

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"

	"autopipe/internal/analysis"
	"autopipe/internal/analysis/callgraph"
)

func load(t *testing.T, src string) (*callgraph.Graph, *types.Info, *token.FileSet) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "a.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	info := analysis.NewInfo()
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	if _, err := conf.Check("p", fset, []*ast.File{f}, info); err != nil {
		t.Fatal(err)
	}
	return callgraph.Build([]*ast.File{f}, info), info, fset
}

func byName(t *testing.T, g *callgraph.Graph, name string) *callgraph.Node {
	t.Helper()
	for _, n := range g.Nodes {
		if n.Name() == name {
			return n
		}
	}
	t.Fatalf("no node %q", name)
	return nil
}

const src = `package p

import (
	"context"
	"sync"
	"time"
)

func clock() time.Time { return time.Now() }

func viaClock() time.Time { return clock() }

func viaViaClock() time.Time { return viaClock() }

func pure(a, b int) int { return a + b }

func blocks(ch chan int) int { return <-ch }

func selDefault(ch chan int) int {
	select {
	case v := <-ch:
		return v
	default:
		return 0
	}
}

func selBlocking(ch chan int, done chan struct{}) int {
	select {
	case v := <-ch:
		return v
	case <-done:
		return -1
	}
}

func waits(wg *sync.WaitGroup) { wg.Wait() }

func ctxParam(ctx context.Context) {}

func usesCtx(ctx context.Context) { ctxParam(ctx) }

func mutual(n int) int {
	if n == 0 {
		return 0
	}
	return lautum(n - 1)
}

func lautum(n int) int {
	_ = time.Now()
	return mutual(n)
}
`

func facts(t *testing.T, src, fn string, opts Options) (Facts, map[Facts]Site) {
	t.Helper()
	g, info, _ := load(t, src)
	sums := Compute(g, info, opts)
	in := sums[byName(t, g, fn)]
	return in.Facts, in.Witness
}

func TestDirectAndTransitive(t *testing.T) {
	for _, tc := range []struct {
		fn      string
		want    Facts
		without Facts
	}{
		{"clock", ReadsClock, MayBlock | GlobalRand},
		{"viaClock", ReadsClock, 0},
		{"viaViaClock", ReadsClock, 0},
		{"pure", 0, ReadsClock | MayBlock},
		{"blocks", MayBlock, 0},
		{"selDefault", 0, MayBlock},
		{"selBlocking", MayBlock | ObservesCancel, 0},
		{"waits", MayBlock, 0},
		{"usesCtx", ObservesCancel, MayBlock},
		// Mutual recursion through a clock read reaches the fixpoint.
		{"mutual", ReadsClock, 0},
	} {
		got, _ := facts(t, src, tc.fn, Options{})
		if got&tc.want != tc.want {
			t.Errorf("%s: facts %v missing %v", tc.fn, got, tc.want)
		}
		if got&tc.without != 0 {
			t.Errorf("%s: facts %v unexpectedly include %v", tc.fn, got, got&tc.without)
		}
	}
}

func TestWitnessChain(t *testing.T) {
	g, info, _ := load(t, src)
	sums := Compute(g, info, Options{})
	in := sums[byName(t, g, "viaViaClock")]
	w := in.Witness[ReadsClock]
	// The chain names both intermediate calls and the original site.
	if !strings.Contains(w.Desc, "viaClock") || !strings.Contains(w.Desc, "time.Now") {
		t.Errorf("witness chain %q should name viaClock and time.Now", w.Desc)
	}
	if !w.Pos.IsValid() {
		t.Error("witness position invalid")
	}
}

func TestIgnoreSuppressesTaint(t *testing.T) {
	g, info, fset := load(t, src)
	// Ignore the direct time.Now inside clock(): neither clock nor its
	// callers may be clock-tainted afterwards.
	ignore := func(pos token.Pos) bool {
		p := fset.Position(pos)
		return p.Line == 9 // the `func clock()` one-liner
	}
	sums := Compute(g, info, Options{Ignore: ignore})
	for _, fn := range []string{"clock", "viaClock", "viaViaClock"} {
		if sums[byName(t, g, fn)].Has(ReadsClock) {
			t.Errorf("%s still clock-tainted despite ignored source site", fn)
		}
	}
}

func TestFactsString(t *testing.T) {
	if got := (ReadsClock | MayBlock).String(); got != "reads clock|may block" {
		t.Errorf("String() = %q", got)
	}
	if got := Facts(0).String(); got != "none" {
		t.Errorf("String() = %q", got)
	}
}
