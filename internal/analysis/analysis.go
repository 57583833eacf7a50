// Package analysis is a self-contained, stdlib-only analogue of
// golang.org/x/tools/go/analysis: the driver framework for autopipelint, the
// repository's static enforcement of the invariants its results rest on
// (wall-clock-free deterministic packages, sentinel-wrapped errors,
// cancellation-clean goroutines, lock discipline, dimensional consistency).
//
// x/tools would normally provide this framework, but the repository builds
// offline with no module proxy, so the subset autopipelint needs — Analyzer,
// Pass, diagnostics, the `go vet -vettool` unitchecker protocol (unit.go),
// and an analysistest-style fixture harness (package analysistest) — is
// implemented here against the standard library's go/ast, go/types, and
// go/importer. The API deliberately mirrors x/tools so the analyzers port
// 1:1 if the dependency ever becomes available.
//
// Suppression: a diagnostic is dropped when the line it is reported on, or
// the line above, carries a `//lint:allow <analyzer> [reason]` comment. The
// escape hatch is per-line and per-analyzer, so every waiver is visible and
// greppable at the call site it excuses. A waiver that suppresses nothing is
// itself reported as a finding, so stale waivers cannot accumulate after the
// code they excused is fixed or deleted.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// `//lint:allow <name>` suppressions.
	Name string
	// Doc states the invariant the analyzer enforces.
	Doc string
	// Run applies the analyzer to one package.
	Run func(*Pass) error
}

// A Pass provides one analyzer with the typed syntax of one package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	report func(Diagnostic)
	// allows maps filename -> line -> position of a //lint:allow comment for
	// this analyzer; used tracks which of those lines suppressed a finding,
	// so RunAnalyzers can report the waivers that have rotted.
	allows map[string]map[int]token.Position
	used   map[string]map[int]bool
}

// A Diagnostic is one finding, positioned and attributed to its analyzer.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Reportf records a finding unless a `//lint:allow` comment on the same or
// the preceding line waives it. A waiver that fires is marked used; waivers
// that never fire are themselves reported by RunAnalyzers.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	if p.Waived(pos) {
		return
	}
	p.report(Diagnostic{Pos: p.Fset.Position(pos), Analyzer: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// Waived reports whether a finding at pos would be suppressed by a
// `//lint:allow` comment for this analyzer, and marks that waiver used. The
// interprocedural analyzers call it while building function summaries: a
// waived site must not taint its callers, because the waiver sanctions the
// effect, not merely the one diagnostic. Since the waiver is consumed, a
// comment that only shields a summary (and never a direct report) still
// counts as live.
func (p *Pass) Waived(pos token.Pos) bool {
	position := p.Fset.Position(pos)
	lines := p.allows[position.Filename]
	for _, line := range []int{position.Line, position.Line - 1} {
		if _, ok := lines[line]; ok {
			if p.used[position.Filename] == nil {
				p.used[position.Filename] = make(map[int]bool)
			}
			p.used[position.Filename][line] = true
			return true
		}
	}
	return false
}

// InTestFile reports whether the node lives in a _test.go file. The
// analyzers enforce invariants on shipped code; tests may legitimately
// measure wall time or hand-roll errors.
func (p *Pass) InTestFile(n ast.Node) bool {
	return strings.HasSuffix(p.Fset.Position(n.Pos()).Filename, "_test.go")
}

// allowPrefix starts every suppression comment: //lint:allow <name> [reason]
const allowPrefix = "lint:allow"

func allowLines(fset *token.FileSet, files []*ast.File, analyzer string) map[string]map[int]token.Position {
	out := make(map[string]map[int]token.Position)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(strings.TrimPrefix(c.Text, "//"), "/*")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, allowPrefix) {
					continue
				}
				fields := strings.Fields(strings.TrimPrefix(text, allowPrefix))
				if len(fields) == 0 || fields[0] != analyzer {
					continue
				}
				pos := fset.Position(c.Pos())
				if out[pos.Filename] == nil {
					out[pos.Filename] = make(map[int]token.Position)
				}
				out[pos.Filename][pos.Line] = pos
			}
		}
	}
	return out
}

// RunAnalyzers applies every analyzer to one typed package and returns the
// surviving diagnostics in file/line order. A `//lint:allow` waiver for one
// of the analyzers run that suppressed nothing is itself reported — waivers
// must not outlive the finding they excuse. (The unused-waiver report is not
// itself waivable: delete the stale comment instead.)
func RunAnalyzers(analyzers []*Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     fset,
			Files:    files,
			Pkg:      pkg,
			Info:     info,
			report:   func(d Diagnostic) { diags = append(diags, d) },
			allows:   allowLines(fset, files, a.Name),
			used:     make(map[string]map[int]bool),
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analyzer %s: %w", a.Name, err)
		}
		for filename, lines := range pass.allows {
			for line, pos := range lines {
				if !pass.used[filename][line] {
					diags = append(diags, Diagnostic{
						Pos:      pos,
						Analyzer: a.Name,
						Message:  fmt.Sprintf("unused waiver: //lint:allow %s suppresses no diagnostic on this or the next line; delete it", a.Name),
					})
				}
			}
		}
	}
	Sort(diags)
	return diags, nil
}

// Sort orders diagnostics by file, line, column, then analyzer.
func Sort(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

// NewInfo returns a types.Info with every map populated, ready for
// types.Config.Check.
func NewInfo() *types.Info {
	return &types.Info{
		Types:        make(map[ast.Expr]types.TypeAndValue),
		Defs:         make(map[*ast.Ident]types.Object),
		Uses:         make(map[*ast.Ident]types.Object),
		Implicits:    make(map[ast.Node]types.Object),
		Instances:    make(map[*ast.Ident]types.Instance),
		Scopes:       make(map[ast.Node]*types.Scope),
		Selections:   make(map[*ast.SelectorExpr]*types.Selection),
		FileVersions: make(map[*ast.File]string),
	}
}

// PkgFunc resolves a call expression to the package-level function it
// invokes, or nil: the building block for "flags calls to time.Now"-style
// checks. Method calls and calls of local values resolve to nil.
func PkgFunc(info *types.Info, call *ast.CallExpr) *types.Func {
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
