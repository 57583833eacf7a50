// Package errsentinel enforces the repository's error discipline: every
// error crossing a package boundary in internal/{core,exec,train} must wrap
// a typed errdefs sentinel (or an upstream error) so that callers dispatch
// with errors.Is instead of matching message strings. Two callers branch on
// these sentinels: the daemon's status mapping (client.Encode: ErrBadConfig
// → 400, ErrInfeasible and ErrOOM → 422) and Tables III/IV's OOM check
// (internal/experiments). A single naked fmt.Errorf in the chain turns a
// typed rejection into a 500 or a planning error into a missing OOM marker.
//
// Flagged (non-test files):
//
//   - fmt.Errorf calls in the error-discipline packages whose format string
//     has no %w verb: the resulting error is opaque to errors.Is/errors.As.
//     Wrap a sentinel (`fmt.Errorf("%w: ...", errdefs.ErrBadConfig, ...)`)
//     or the upstream error.
//   - errors.New inside a function body in those packages — an unwrappable
//     ad-hoc error. Package-level sentinel declarations are fine.
//   - anywhere: `err == ErrFoo` / `err != ErrFoo` comparisons against
//     sentinel variables (package-level error vars named Err*). They break
//     under wrapping; use errors.Is.
//
// Escape hatch: `//lint:allow errsentinel <reason>` on the line or the line
// above, for genuine root errors that no caller dispatches on.
package errsentinel

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"

	"autopipe/internal/analysis"
)

// DefaultScope lists the packages whose returned errors must wrap a
// sentinel. The sentinel-comparison check applies everywhere regardless.
var DefaultScope = []string{
	"autopipe/internal/core",
	"autopipe/internal/exec",
	"autopipe/internal/train",
}

// Analyzer checks the production packages.
var Analyzer = New(DefaultScope...)

// New returns an errsentinel analyzer whose wrap checks are scoped to the
// given package paths. Tests scope it to fixtures.
func New(scope ...string) *analysis.Analyzer {
	a := &analysis.Analyzer{
		Name: "errsentinel",
		Doc:  "require %w-wrapped errdefs sentinels at package boundaries and errors.Is over == for sentinel tests",
	}
	a.Run = func(pass *analysis.Pass) error {
		scoped := inScope(pass.Pkg.Path(), scope)
		for _, file := range pass.Files {
			if pass.InTestFile(file) {
				continue
			}
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Body != nil {
						checkFuncBody(pass, d.Body, scoped)
					}
				case *ast.GenDecl:
					// Package-level initializers: errors.New here is the
					// sanctioned sentinel-declaration site, but sentinel
					// comparisons are still wrong, and a function literal
					// assigned to a package variable is a function body.
					ast.Inspect(d, func(n ast.Node) bool {
						switch n := n.(type) {
						case *ast.BinaryExpr:
							checkCompare(pass, n)
						case *ast.FuncLit:
							checkFuncBody(pass, n.Body, scoped)
							return false
						}
						return true
					})
				}
			}
		}
		return nil
	}
	return a
}

func inScope(path string, scope []string) bool {
	for _, s := range scope {
		if path == s || strings.HasPrefix(path, s+"/") {
			return true
		}
	}
	return false
}

// checkFuncBody applies the comparison check everywhere in the body and,
// when the package is in scope, flags unwrapped fmt.Errorf and in-function
// errors.New. Nested function literals are covered by the same walk.
//
// An errors.New is sanctioned when something on the same line wraps it into
// a dispatchable chain: a direct argument of errors.Join (which implements
// Unwrap() []error) or of a fmt.Errorf verb slot matched to %w (Go 1.20
// multi-%w included). The walk visits parents first, so the wrapping call
// records its sanctioned arguments before the errors.New node is reached.
func checkFuncBody(pass *analysis.Pass, body *ast.BlockStmt, scoped bool) {
	wrapped := make(map[ast.Node]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BinaryExpr:
			checkCompare(pass, n)
		case *ast.CallExpr:
			if !scoped {
				return true
			}
			fn := analysis.PkgFunc(pass.Info, n)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			switch {
			case fn.Pkg().Path() == "fmt" && fn.Name() == "Errorf":
				format, ok := constFormat(pass, n)
				if !ok {
					return true
				}
				verbs := argVerbs(format)
				wrapsAny := false
				for i, arg := range n.Args[1:] {
					if verbs[i] == 'w' {
						wrapsAny = true
						wrapped[ast.Unparen(arg)] = true
					}
				}
				if !wrapsAny {
					pass.Reportf(n.Pos(),
						"fmt.Errorf without %%w in %s: wrap an errdefs sentinel or the upstream error so errors.Is can dispatch on it",
						pass.Pkg.Path())
				}
			case fn.Pkg().Path() == "errors" && fn.Name() == "Join":
				for _, arg := range n.Args {
					wrapped[ast.Unparen(arg)] = true
				}
			case fn.Pkg().Path() == "errors" && fn.Name() == "New":
				if wrapped[n] {
					return true
				}
				pass.Reportf(n.Pos(),
					"errors.New inside a function in %s creates an unwrappable error: wrap an errdefs sentinel with fmt.Errorf(\"%%w: ...\") or declare a package-level sentinel",
					pass.Pkg.Path())
			}
		}
		return true
	})
}

// argVerbs maps variadic-argument index -> the fmt verb letter consuming it.
// It understands %% escapes, flags, *-widths and precisions (which consume
// an argument themselves, recorded as '*'), and explicit argument indexes
// like %[2]w. strings.Contains(format, "%w") is not enough: "%%w" renders a
// literal and wraps nothing, and with multi-%w the analyzer must know which
// argument slots are wrapped, not just that one is.
func argVerbs(format string) map[int]byte {
	verbs := make(map[int]byte)
	arg := 0
	for i := 0; i < len(format); i++ {
		if format[i] != '%' {
			continue
		}
		i++
		if i >= len(format) {
			break
		}
		if format[i] == '%' {
			continue // literal percent, consumes nothing
		}
		for i < len(format) && strings.ContainsRune("#+-0 ", rune(format[i])) {
			i++
		}
		if i < len(format) && format[i] == '*' {
			verbs[arg] = '*'
			arg++
			i++
		} else {
			for i < len(format) && format[i] >= '0' && format[i] <= '9' {
				i++
			}
		}
		if i < len(format) && format[i] == '.' {
			i++
			if i < len(format) && format[i] == '*' {
				verbs[arg] = '*'
				arg++
				i++
			} else {
				for i < len(format) && format[i] >= '0' && format[i] <= '9' {
					i++
				}
			}
		}
		if i < len(format) && format[i] == '[' {
			j := i + 1
			n := 0
			for j < len(format) && format[j] >= '0' && format[j] <= '9' {
				n = n*10 + int(format[j]-'0')
				j++
			}
			if j < len(format) && format[j] == ']' && n > 0 {
				arg = n - 1
				i = j + 1
			}
		}
		if i < len(format) {
			verbs[arg] = format[i]
			arg++
		}
	}
	return verbs
}

func constFormat(pass *analysis.Pass, call *ast.CallExpr) (string, bool) {
	if len(call.Args) == 0 {
		return "", false
	}
	tv, ok := pass.Info.Types[call.Args[0]]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}

// checkCompare flags ==/!= against sentinel error variables.
func checkCompare(pass *analysis.Pass, cmp *ast.BinaryExpr) {
	if cmp.Op != token.EQL && cmp.Op != token.NEQ {
		return
	}
	xs, xok := sentinelVar(pass, cmp.X)
	ys, yok := sentinelVar(pass, cmp.Y)
	if !xok && !yok {
		return
	}
	// The other operand must itself be an error (and not the same sentinel
	// family: `ErrA == ErrB` identity checks are equally wrong, keep them).
	other := cmp.Y
	name := xs
	if !xok {
		other, name = cmp.X, ys
	}
	t := pass.Info.TypeOf(other)
	if t == nil || !isErrorish(t) {
		return
	}
	pass.Reportf(cmp.Pos(),
		"comparing error with %s using %s breaks under wrapping; use errors.Is(err, %s)",
		name, cmp.Op, name)
}

// sentinelVar reports whether e names a package-level error variable whose
// name starts with Err (the sentinel naming convention, errdefs included).
func sentinelVar(pass *analysis.Pass, e ast.Expr) (string, bool) {
	var id *ast.Ident
	var render string
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		id, render = e, e.Name
	case *ast.SelectorExpr:
		id = e.Sel
		if x, ok := e.X.(*ast.Ident); ok {
			render = x.Name + "." + e.Sel.Name
		} else {
			render = e.Sel.Name
		}
	default:
		return "", false
	}
	v, ok := pass.Info.Uses[id].(*types.Var)
	if !ok || !strings.HasPrefix(v.Name(), "Err") {
		return "", false
	}
	// Package-level: parented by a package scope.
	if v.Parent() == nil || v.Pkg() == nil || v.Parent() != v.Pkg().Scope() {
		return "", false
	}
	return render, isErrorish(v.Type())
}

var errorType = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

func isErrorish(t types.Type) bool {
	return types.Implements(t, errorType) || types.Identical(t, errorType.Underlying()) ||
		types.AssignableTo(t, types.Universe.Lookup("error").Type())
}
