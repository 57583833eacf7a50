package callgraph

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"testing"

	"autopipe/internal/analysis"
)

// load typechecks one inline file and returns its graph plus the info.
func load(t *testing.T, src string) (*Graph, *types.Info) {
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
	return Build([]*ast.File{f}, info), info
}

func nodeByName(t *testing.T, g *Graph, name string) *Node {
	t.Helper()
	for _, n := range g.Nodes {
		if n.Name() == name {
			return n
		}
	}
	t.Fatalf("no node named %q (have %v)", name, names(g))
	return nil
}

func names(g *Graph) []string {
	var out []string
	for _, n := range g.Nodes {
		out = append(out, n.Name())
	}
	return out
}

func callees(n *Node) []string {
	var out []string
	for _, e := range n.Out {
		out = append(out, e.Callee.Name())
	}
	return out
}

const src = `package p

type S struct{ n int }

func (s *S) run() { helper() }

func helper() {}

func direct() {
	helper()
	var s S
	s.run()
}

func literals() {
	f := func() { helper() }
	f()
	func() {}()
}

func widened() {
	g := func() {}
	g = func() { helper() }
	g()
}

func spawns(s *S) {
	go s.run()
	go helper()
	defer helper()
}
`

func TestResolution(t *testing.T) {
	g, _ := load(t, src)

	for _, tc := range []struct {
		node string
		want []string
	}{
		// Static call + concrete method call both resolve.
		{"direct", []string{"helper", "(*S).run"}},
		// Single-assignment binding and immediately invoked literal resolve;
		// the two literal nodes exist on their own.
		{"literals", []string{"function literal in literals", "function literal in literals"}},
		// Two different literals assigned to g: widened, no edge for g().
		{"widened", nil},
		// go/defer call expressions are ordinary edges.
		{"spawns", []string{"(*S).run", "helper", "helper"}},
		{"(*S).run", []string{"helper"}},
	} {
		n := nodeByName(t, g, tc.node)
		got := callees(n)
		if len(got) != len(tc.want) {
			t.Fatalf("%s: callees = %v, want %v", tc.node, got, tc.want)
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("%s: callee[%d] = %q, want %q", tc.node, i, got[i], tc.want[i])
			}
		}
	}

	// The bound literal's own edge resolves too.
	lit := nodeByName(t, g, "literals").Out[0].Callee
	if got := callees(lit); len(got) != 1 || got[0] != "helper" {
		t.Fatalf("bound literal callees = %v, want [helper]", got)
	}
}

func TestFuncValue(t *testing.T) {
	g, info := load(t, src)
	spawns := nodeByName(t, g, "spawns")

	var goStmts []*ast.GoStmt
	ast.Inspect(spawns.Body(), func(n ast.Node) bool {
		if gs, ok := n.(*ast.GoStmt); ok {
			goStmts = append(goStmts, gs)
		}
		return true
	})
	if len(goStmts) != 2 {
		t.Fatalf("found %d go statements, want 2", len(goStmts))
	}
	if n := g.FuncValue(goStmts[0].Call.Fun); n == nil || n.Name() != "(*S).run" {
		t.Errorf("go s.run resolves to %v, want (*S).run", n)
	}
	if n := g.FuncValue(goStmts[1].Call.Fun); n == nil || n.Name() != "helper" {
		t.Errorf("go helper resolves to %v, want helper", n)
	}
	_ = info
}

// TestStoredThenReassigned pins the v3 unsoundness fix: a function variable
// bound once to a literal and then reassigned through a channel the binding
// pass cannot track — a range clause, or a pointer taken to the variable —
// must widen to unresolved. v3 resolved rebound() and escaped() to the first
// literal, so ctxspawn would have checked the wrong spawned body for a
// cancellation signal.
func TestStoredThenReassigned(t *testing.T) {
	g, _ := load(t, `package p

func helper() {}

func rebound(fns []func()) {
	f := func() { helper() }
	for _, f = range fns {
		_ = f
	}
	f()
}

func escaped(mut func(*func())) {
	f := func() { helper() }
	mut(&f)
	f()
}

func rangeDefined(fns []func()) {
	for _, f := range fns {
		f()
	}
}

// still resolves: a single binding with no reassignment channel.
func intact() {
	f := func() { helper() }
	f()
}
`)
	for _, fn := range []string{"rebound", "escaped", "rangeDefined"} {
		for _, got := range callees(nodeByName(t, g, fn)) {
			if got != "mut" { // escaped's call to its parameter never resolves anyway
				t.Errorf("%s: call resolved to %q; reassignment must widen the binding to unresolved", fn, got)
			}
		}
	}
	if got := callees(nodeByName(t, g, "intact")); len(got) != 1 || got[0] != "function literal in intact" {
		t.Errorf("intact: callees = %v, want the bound literal", got)
	}
}

func TestInterfaceCallUnresolved(t *testing.T) {
	g, _ := load(t, `package p

type I interface{ M() }

type T struct{}

func (T) M() {}

func f(i I) { i.M() }
`)
	// The dynamic call through the interface must stay unresolved — the
	// interface method object has no body in this package.
	if got := callees(nodeByName(t, g, "f")); len(got) != 0 {
		t.Fatalf("interface call resolved to %v, want unresolved", got)
	}
}
