// Package summary computes per-function effect summaries over a callgraph
// and propagates them bottom-up to a fixpoint. Each function body gets a
// monotone bitset of facts — reads the wall clock, draws from the global
// rand source, may block on a channel, observes a cancellation signal —
// derived first from its own syntax (with known-effect tables for the
// relevant stdlib packages) and then inherited across every resolved
// same-package call edge. The interprocedural analyzers (transitive
// simclock, ctxspawn, locksafe) consume the result instead of re-walking
// callee bodies themselves.
//
// Soundness model: facts only ever turn on, so the worklist fixpoint
// terminates, and a fact present is a *may* property ("this function may
// read the clock"), never a must. Unresolved callees (interface methods,
// cross-package calls outside the stdlib tables, widened function values)
// contribute nothing — the analyzers that need external effects covered use
// the same stdlib tables at the call site. Every fact carries a witness chain
// (the site that introduced it, through the call edges it traveled), so a
// diagnostic three calls removed from the offending line can still name it.
package summary

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"autopipe/internal/analysis/callgraph"
)

// Facts is a monotone bitset of function effects.
type Facts uint32

const (
	// ReadsClock: the function may read the wall clock or arm a timer
	// (time.Now, time.Sleep, ...).
	ReadsClock Facts = 1 << iota
	// GlobalRand: the function may draw from the process-global math/rand
	// source.
	GlobalRand
	// MayBlock: the function may block indefinitely on channel communication,
	// a select without default, or sync.WaitGroup.Wait / sync.Cond.Wait.
	// Acquiring a plain mutex is deliberately excluded: lock acquisition is
	// locksafe's own domain, and treating every Lock as blocking would flag
	// all fine-grained locking helpers (see DESIGN §11.9).
	MayBlock
	// ObservesCancel: the function references a context.Context or a
	// receivable chan struct{} (done channel) — it has a cancellation path.
	ObservesCancel
)

// String renders the set for diagnostics, e.g. "reads clock|may block".
func (f Facts) String() string {
	var parts []string
	for _, e := range []struct {
		bit  Facts
		name string
	}{
		{ReadsClock, "reads clock"},
		{GlobalRand, "global rand"},
		{MayBlock, "may block"},
		{ObservesCancel, "observes cancel"},
	} {
		if f&e.bit != 0 {
			parts = append(parts, e.name)
		}
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, "|")
}

// A Site is one witness: where a fact was introduced and what introduced it.
type Site struct {
	Pos  token.Pos
	Desc string
}

// An Info is one function's summary.
type Info struct {
	Facts Facts
	// Witness maps each single-bit fact to one site that introduced it —
	// either a direct site in this body, or "call to f (…)" chaining through
	// the edge that inherited it.
	Witness map[Facts]Site
}

// Has reports whether every bit of f is present.
func (in *Info) Has(f Facts) bool { return in != nil && in.Facts&f == f }

// Options configures Compute.
type Options struct {
	// Ignore, when non-nil, suppresses direct facts whose site it reports
	// true for. The analyzers pass Pass.Waived so a `//lint:allow` comment
	// sanctions the effect itself: a waived time.Now does not make every
	// caller clock-tainted.
	Ignore func(token.Pos) bool
}

// Compute returns the fixpoint summary for every node of g.
func Compute(g *callgraph.Graph, info *types.Info, opts Options) map[*callgraph.Node]*Info {
	out := make(map[*callgraph.Node]*Info, len(g.Nodes))
	for _, n := range g.Nodes {
		out[n] = direct(n, info, opts)
	}
	// Bottom-up propagation: inherit callee facts across resolved edges until
	// nothing changes. Facts are monotone, so this terminates in at most
	// bits×nodes rounds; the graphs are package-sized, so a simple sweep
	// beats maintaining a reverse-edge worklist.
	for changed := true; changed; {
		changed = false
		for _, n := range g.Nodes {
			ni := out[n]
			for _, e := range n.Out {
				ci := out[e.Callee]
				inherit := ci.Facts &^ ni.Facts
				if inherit == 0 {
					continue
				}
				for bit := Facts(1); bit <= ObservesCancel; bit <<= 1 {
					if inherit&bit == 0 {
						continue
					}
					w := ci.Witness[bit]
					ni.Witness[bit] = Site{
						Pos:  e.Site.Pos(),
						Desc: fmt.Sprintf("call to %s: %s", e.Callee.Name(), w.Desc),
					}
				}
				ni.Facts |= inherit
				changed = true
			}
		}
	}
	return out
}

// direct scans one body shallowly (nested literals are their own nodes) for
// the facts it exhibits itself.
func direct(n *callgraph.Node, info *types.Info, opts Options) *Info {
	in := &Info{Witness: make(map[Facts]Site)}
	add := func(bit Facts, pos token.Pos, desc string) {
		if opts.Ignore != nil && opts.Ignore(pos) {
			return
		}
		if in.Facts&bit == 0 {
			in.Facts |= bit
			in.Witness[bit] = Site{Pos: pos, Desc: desc}
		}
	}

	// A cancellation parameter is itself an observation point: the function
	// can be handed a ctx/done channel, which is what ctxspawn checks for.
	if sig := signatureOf(n, info); sig != nil {
		for i := 0; i < sig.Params().Len(); i++ {
			p := sig.Params().At(i)
			if IsCancelType(p.Type()) {
				add(ObservesCancel, p.Pos(), fmt.Sprintf("parameter %s", p.Name()))
			}
		}
	}

	body := n.Body()
	if body == nil {
		return in
	}
	// Channel operations that are the communication of a select case are not
	// independent blocking points — the select statement is the blocking
	// point, and only when it has no default. Collect them up front so the
	// main walk can skip their MayBlock contribution.
	selectComm := make(map[ast.Node]bool)
	walk(body, func(m ast.Node) {
		sel, ok := m.(*ast.SelectStmt)
		if !ok {
			return
		}
		for _, c := range sel.Body.List {
			cc, ok := c.(*ast.CommClause)
			if !ok || cc.Comm == nil {
				continue
			}
			ast.Inspect(cc.Comm, func(x ast.Node) bool {
				switch x := x.(type) {
				case *ast.SendStmt:
					selectComm[x] = true
				case *ast.UnaryExpr:
					if x.Op == token.ARROW {
						selectComm[x] = true
					}
				}
				return true
			})
		}
	})
	walk(body, func(m ast.Node) {
		switch m := m.(type) {
		case *ast.CallExpr:
			directCall(m, info, add)
		case *ast.UnaryExpr:
			if m.Op == token.ARROW && !selectComm[m] {
				add(MayBlock, m.Pos(), "channel receive")
			}
		case *ast.SendStmt:
			if !selectComm[m] {
				add(MayBlock, m.Pos(), "channel send")
			}
		case *ast.SelectStmt:
			hasDefault := false
			for _, c := range m.Body.List {
				if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
					hasDefault = true
				}
			}
			if !hasDefault {
				add(MayBlock, m.Pos(), "select without default")
			}
		case *ast.Ident:
			if obj := info.Uses[m]; obj != nil {
				if _, isVar := obj.(*types.Var); isVar && IsCancelType(obj.Type()) {
					add(ObservesCancel, m.Pos(), fmt.Sprintf("reference to %s", m.Name))
				}
			}
		}
	})
	return in
}

// directCall applies the known-effect tables to one call expression.
func directCall(call *ast.CallExpr, info *types.Info, add func(Facts, token.Pos, string)) {
	// Stdlib effect tables for package-level functions.
	if fn := pkgFunc(info, call); fn != nil && fn.Pkg() != nil {
		switch fn.Pkg().Path() {
		case "time":
			if clockFuncs[fn.Name()] {
				add(ReadsClock, call.Pos(), "time."+fn.Name())
			}
		case "math/rand", "math/rand/v2":
			if !strings.HasPrefix(fn.Name(), "New") {
				add(GlobalRand, call.Pos(), "rand."+fn.Name())
			}
		}
		return
	}
	// Blocking sync methods: WaitGroup.Wait and Cond.Wait.
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if fn, ok := info.Uses[sel.Sel].(*types.Func); ok && fn.Name() == "Wait" {
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
				name := types.TypeString(recv.Type(), nil)
				if name == "*sync.WaitGroup" || name == "*sync.Cond" {
					add(MayBlock, call.Pos(), name[1:]+".Wait")
				}
			}
		}
	}
}

// clockFuncs mirrors simclock's forbidden-time table: wall-clock reads and
// timer arms.
var clockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true, "NewTimer": true, "NewTicker": true,
}

// IsCancelType reports whether t is a cancellation signal: a context.Context
// or a receivable channel of struct{} (the done-channel idiom). Shared with
// ctxspawn so the literal and interprocedural checks agree.
func IsCancelType(t types.Type) bool {
	if t == nil {
		return false
	}
	if named, ok := t.(*types.Named); ok {
		obj := named.Obj()
		if obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context" {
			return true
		}
	}
	if iface, ok := t.Underlying().(*types.Interface); ok {
		for i := 0; i < iface.NumEmbeddeds(); i++ {
			if IsCancelType(iface.EmbeddedType(i)) {
				return true
			}
		}
	}
	if ch, ok := t.Underlying().(*types.Chan); ok {
		if ch.Dir() == types.SendOnly {
			return false
		}
		if st, ok := ch.Elem().Underlying().(*types.Struct); ok && st.NumFields() == 0 {
			return true
		}
	}
	return false
}

func signatureOf(n *callgraph.Node, info *types.Info) *types.Signature {
	if n.Obj != nil {
		return n.Obj.Type().(*types.Signature)
	}
	if n.Lit != nil {
		if t := info.TypeOf(n.Lit); t != nil {
			if sig, ok := t.(*types.Signature); ok {
				return sig
			}
		}
	}
	return nil
}

// pkgFunc resolves a call to a package-level function (duplicated from the
// framework to keep the dependency one-way: analysis → summary is not
// imported, analyzers import both).
func pkgFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		id = fun.Sel
	case *ast.Ident:
		id = fun
	default:
		return nil
	}
	fn, ok := info.Uses[id].(*types.Func)
	if !ok || fn.Type().(*types.Signature).Recv() != nil {
		return nil
	}
	return fn
}

// walk visits every node of body without descending into nested function
// literals (they are separate callgraph nodes with their own summaries).
func walk(body ast.Node, f func(ast.Node)) {
	ast.Inspect(body, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok && m != body {
			return false
		}
		if m != nil {
			f(m)
		}
		return true
	})
}
