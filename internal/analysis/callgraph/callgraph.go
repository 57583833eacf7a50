// Package callgraph builds a package-level call graph over typed syntax: one
// node per function body (declared functions, methods, and function
// literals), one edge per call site that resolves statically to a body in the
// same package. It is the substrate for the interprocedural analyzers
// (summary fixpoint, transitive simclock/ctxspawn/locksafe):
// instead of every analyzer re-deriving "which function does this call
// reach", they ask the graph.
//
// Resolution is deliberately conservative and purely AST+types-based (the
// repository builds offline; there is no SSA layer to lean on):
//
//   - `f(...)` where f is a package-level function: resolved via
//     types.Info.Uses to the declaration.
//   - `recv.m(...)` where m is a concrete method declared in this package:
//     resolved the same way. Interface method calls resolve to the interface
//     method object, which has no body here, so they stay unresolved.
//   - `func(){...}(...)`: an immediately invoked literal resolves to the
//     literal's node.
//   - `f(...)` where f is a local variable: resolved only when every
//     assignment to f in the package binds the same single function literal
//     (the `f := func(){...}; ...; f()` idiom). Any other assignment widens
//     f to unresolved.
//   - Everything else — function-typed fields and parameters, method values
//     passed around as data, cross-package calls — is unresolved. Callers of
//     the graph must treat unresolved callees as "unknown effects" and stay
//     conservative (the analyzers' known-stdlib tables cover the common
//     external cases).
//
// The same resolution is applied to `go` and `defer` statements, since their
// call expressions are ordinary *ast.CallExpr nodes.
package callgraph

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// A Node is one function body in the package.
type Node struct {
	// Decl is the declaration for named functions and methods; nil for
	// literals.
	Decl *ast.FuncDecl
	// Lit is the literal for anonymous functions; nil for declarations.
	Lit *ast.FuncLit
	// Obj is the type object of Decl (nil for literals).
	Obj *types.Func
	// Encl is the node whose body lexically contains this literal; nil for
	// declarations and for literals bound at package level.
	Encl *Node
	// Out lists the node's resolved same-package call edges in source order.
	Out []Edge
}

// An Edge is one call site resolved to a same-package callee.
type Edge struct {
	// Site is the call expression (also the position to report at).
	Site *ast.CallExpr
	// Callee is the resolved target node.
	Callee *Node
}

// Body returns the function body; nil for bodyless declarations (assembly or
// external linkage).
func (n *Node) Body() *ast.BlockStmt {
	if n.Lit != nil {
		return n.Lit.Body
	}
	return n.Decl.Body
}

// Name renders the node for diagnostics: the plain function name, the
// (*T).m method form, or "function literal in <encl>" for anonymous bodies.
func (n *Node) Name() string {
	if n.Decl != nil {
		if n.Obj != nil && n.Obj.Type().(*types.Signature).Recv() != nil {
			recv := n.Obj.Type().(*types.Signature).Recv().Type()
			return fmt.Sprintf("(%s).%s", types.TypeString(recv, func(*types.Package) string { return "" }), n.Decl.Name.Name)
		}
		return n.Decl.Name.Name
	}
	if n.Encl != nil {
		return "function literal in " + n.Encl.Name()
	}
	return "function literal"
}

// A Graph is the call graph of one package.
type Graph struct {
	// Nodes lists every function body in source order (declarations first
	// within a file, literals in lexical order inside their enclosing body).
	Nodes []*Node

	info  *types.Info
	decls map[*types.Func]*Node
	lits  map[*ast.FuncLit]*Node
	// binds maps a local function-typed variable to the single literal it is
	// provably bound to, or to nil once a second/other assignment widens it.
	binds map[types.Object]*ast.FuncLit
}

// NodeOfLit returns the node for a function literal, or nil.
func (g *Graph) NodeOfLit(lit *ast.FuncLit) *Node { return g.lits[lit] }

// Build constructs the call graph for the given files of one typed package.
// Callers that enforce invariants on shipped code only should pass the
// non-test files.
func Build(files []*ast.File, info *types.Info) *Graph {
	g := &Graph{
		info:  info,
		decls: make(map[*types.Func]*Node),
		lits:  make(map[*ast.FuncLit]*Node),
		binds: make(map[types.Object]*ast.FuncLit),
	}

	// Pass 1: nodes. Declarations first so method/function calls resolve,
	// then every literal, attributed to its lexically enclosing body.
	for _, f := range files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				n := &Node{Decl: fd}
				if obj, ok := info.Defs[fd.Name].(*types.Func); ok {
					n.Obj = obj
					g.decls[obj] = n
				}
				g.Nodes = append(g.Nodes, n)
			}
		}
	}
	for _, f := range files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Body != nil {
					g.addLits(d.Body, g.declNode(d))
				}
			case *ast.GenDecl:
				// Package-level `var f = func(){...}` initializers.
				for _, spec := range d.Specs {
					if vs, ok := spec.(*ast.ValueSpec); ok {
						for _, v := range vs.Values {
							g.addLits(v, nil)
						}
					}
				}
			}
		}
	}

	// Pass 2: single-assignment bindings of local variables to literals.
	// Every statement that can store into a function-typed variable must be
	// visited here: an assignment the pass does not see leaves a stale binding
	// behind, and a stale binding resolves calls to a body the variable no
	// longer holds — unsound for ctxspawn, which resolves `go f()` through
	// these bindings and would check the wrong spawned body for a
	// cancellation signal. Range clauses and address-taking (a pointer
	// through which the variable can be reassigned out of sight) therefore
	// widen conservatively.
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if len(n.Lhs) == len(n.Rhs) {
					for i, lhs := range n.Lhs {
						g.bind(lhs, n.Rhs[i])
					}
				} else {
					for _, lhs := range n.Lhs {
						g.bind(lhs, nil)
					}
				}
			case *ast.ValueSpec:
				if len(n.Names) == len(n.Values) {
					for i, name := range n.Names {
						g.bind(name, n.Values[i])
					}
				} else {
					for _, name := range n.Names {
						if len(n.Values) > 0 {
							g.bind(name, nil)
						}
					}
				}
			case *ast.RangeStmt:
				// `for _, f = range fns` (and `:=`) stores arbitrary range
				// elements into f: never a single provable literal.
				if n.Key != nil {
					g.bind(n.Key, nil)
				}
				if n.Value != nil {
					g.bind(n.Value, nil)
				}
			case *ast.UnaryExpr:
				// &f escapes the variable: any callee holding the pointer can
				// reassign it between the binding and the call site.
				if n.Op == token.AND {
					g.bind(ast.Unparen(n.X), nil)
				}
			}
			return true
		})
	}

	// Pass 3: edges, collected shallowly per node (a nested literal's calls
	// belong to the literal's own node).
	for _, n := range g.Nodes {
		body := n.Body()
		walkShallow(body, func(m ast.Node) {
			call, ok := m.(*ast.CallExpr)
			if !ok {
				return
			}
			if callee := g.CalleeOf(call); callee != nil {
				n.Out = append(n.Out, Edge{Site: call, Callee: callee})
			}
		})
	}
	return g
}

func (g *Graph) declNode(d *ast.FuncDecl) *Node {
	if obj, ok := g.info.Defs[d.Name].(*types.Func); ok {
		return g.decls[obj]
	}
	for _, n := range g.Nodes {
		if n.Decl == d {
			return n
		}
	}
	return nil
}

// addLits registers every function literal under root, nesting literals under
// the node of the literal that encloses them.
func (g *Graph) addLits(root ast.Node, encl *Node) {
	var walk func(n ast.Node, encl *Node)
	walk = func(n ast.Node, encl *Node) {
		ast.Inspect(n, func(m ast.Node) bool {
			lit, ok := m.(*ast.FuncLit)
			if !ok {
				return true
			}
			node := &Node{Lit: lit, Encl: encl}
			g.lits[lit] = node
			g.Nodes = append(g.Nodes, node)
			walk(lit.Body, node)
			return false
		})
	}
	walk(root, encl)
}

// bind records lhs := rhs for the single-literal binding analysis. A nil rhs,
// or any rhs that is not a function literal, widens the variable.
func (g *Graph) bind(lhs ast.Node, rhs ast.Expr) {
	id, ok := lhs.(*ast.Ident)
	if !ok || id.Name == "_" {
		return
	}
	obj := g.info.Defs[id]
	if obj == nil {
		obj = g.info.Uses[id]
	}
	v, ok := obj.(*types.Var)
	if !ok {
		return
	}
	if _, isSig := v.Type().Underlying().(*types.Signature); !isSig {
		return
	}
	lit, _ := ast.Unparen(rhs).(*ast.FuncLit)
	if rhs == nil || lit == nil {
		g.binds[v] = nil // widened
		return
	}
	if prev, seen := g.binds[v]; seen && prev != lit {
		g.binds[v] = nil
		return
	}
	g.binds[v] = lit
}

// CalleeOf resolves a call expression to a same-package node using the rules
// in the package comment, or nil when the target is unknown.
func (g *Graph) CalleeOf(call *ast.CallExpr) *Node {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.FuncLit:
		return g.lits[fun]
	case *ast.Ident:
		switch obj := g.info.Uses[fun].(type) {
		case *types.Func:
			return g.decls[obj]
		case *types.Var:
			if lit := g.binds[obj]; lit != nil {
				return g.lits[lit]
			}
		}
	case *ast.SelectorExpr:
		if obj, ok := g.info.Uses[fun.Sel].(*types.Func); ok {
			return g.decls[obj]
		}
	}
	return nil
}

// FuncValue resolves a non-call function-valued expression — the operand of a
// `go` statement argument, a stored callback — to a same-package node, or
// nil. It handles literals, named functions, methods (method values), and
// single-assignment local bindings.
func (g *Graph) FuncValue(e ast.Expr) *Node {
	switch e := ast.Unparen(e).(type) {
	case *ast.FuncLit:
		return g.lits[e]
	case *ast.Ident:
		switch obj := g.info.Uses[e].(type) {
		case *types.Func:
			return g.decls[obj]
		case *types.Var:
			if lit := g.binds[obj]; lit != nil {
				return g.lits[lit]
			}
		}
	case *ast.SelectorExpr:
		if obj, ok := g.info.Uses[e.Sel].(*types.Func); ok {
			return g.decls[obj]
		}
	}
	return nil
}

// walkShallow walks n without descending into nested function literals.
func walkShallow(n ast.Node, f func(ast.Node)) {
	ast.Inspect(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok && m != n {
			return false
		}
		if m != nil {
			f(m)
		}
		return true
	})
}
