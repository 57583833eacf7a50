// Command autopipelint is the repository's static analysis suite. Besides
// the -waivers audit it runs in one mode:
//
//	go vet -vettool=$(pwd)/bin/autopipelint ./...
//
// drives the two Go analyzers, simclock and errsentinel, over every
// compilation unit via the go command's vettool protocol: autopipelint
// answers the -V=full version handshake and the -flags enumeration (it has
// no analyzer flags), then is invoked once per package with a *.cfg unit
// description.
//
//	bin/autopipelint -waivers ./internal ./cmd
//
// audits suppressions: it lists every live //lint:allow waiver with its
// file:line, analyzer, and justification (fixture trees under testdata are
// excluded). The listing is informational — make lint-waivers drives it —
// so reviewers see the complete, current waiver budget in one place.
//
// Exit status is 1 when any finding is reported, so the vettool mode gates
// CI.
package main

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"go/parser"
	"go/token"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"

	"autopipe/internal/analysis"
	"autopipe/internal/analysis/errsentinel"
	"autopipe/internal/analysis/simclock"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("autopipelint", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	var (
		versionFlag = fs.String("V", "", "print version and exit (go vet handshake)")
		flagsFlag   = fs.Bool("flags", false, "print analyzer flags as JSON and exit (go vet handshake)")
		waiversFlag = fs.Bool("waivers", false, "list every live //lint:allow waiver under the given paths and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	switch {
	case *versionFlag != "":
		return printVersion(os.Stdout, *versionFlag)
	case *flagsFlag:
		// The go command asks which analyzer flags to forward from its own
		// command line; there are none.
		fmt.Fprintln(os.Stdout, "[]")
		return 0
	case *waiversFlag:
		return runWaivers(os.Stdout, fs.Args())
	}

	// Unit mode: exactly one *.cfg argument from the go command.
	if fs.NArg() != 1 || !strings.HasSuffix(fs.Arg(0), ".cfg") {
		fmt.Fprintln(os.Stderr, "usage: autopipelint [-waivers paths...] | <unit>.cfg (via go vet -vettool)")
		return 2
	}
	diags, err := analysis.RunUnit(fs.Arg(0), []*analysis.Analyzer{simclock.Analyzer, errsentinel.Analyzer})
	if err != nil {
		fmt.Fprintf(os.Stderr, "autopipelint: %v\n", err)
		return 1
	}
	return report(diags)
}

// printVersion answers `autopipelint -V=full`: the go command caches vet
// results keyed on this string, so it must change whenever the tool's
// behavior can — hashing the executable achieves that.
func printVersion(w io.Writer, mode string) int {
	progname := "autopipelint"
	if mode != "full" {
		fmt.Fprintf(w, "%s version devel\n", progname)
		return 0
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	f, err := os.Open(exe)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Fprintf(w, "%s version devel comments-go-here buildID=%02x\n", progname, h.Sum(nil))
	return 0
}

// runWaivers walks the given roots (default ".") and lists every
// //lint:allow waiver in non-testdata Go source: one "file:line: analyzer:
// reason" line each, plus a total. Files are parsed, so only real waiver
// comments count — prose that merely mentions the marker (docs, string
// literals) does not. Unused waivers are the analyzers' job to reject
// (RunAnalyzers reports them); this listing is how reviewers audit the ones
// that remain live.
func runWaivers(w io.Writer, roots []string) int {
	if len(roots) == 0 {
		roots = []string{"."}
	}
	total := 0
	for _, root := range roots {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if name := d.Name(); name == "testdata" || strings.HasPrefix(name, ".") && name != "." {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, ".go") {
				return nil
			}
			fset := token.NewFileSet()
			f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					// Same matching as the analyzer framework's allowLines.
					text := strings.TrimPrefix(strings.TrimPrefix(c.Text, "//"), "/*")
					text = strings.TrimSpace(text)
					if !strings.HasPrefix(text, "lint:allow") {
						continue
					}
					rest := strings.TrimSpace(strings.TrimPrefix(text, "lint:allow"))
					analyzer, reason, _ := strings.Cut(rest, " ")
					if analyzer == "" {
						continue
					}
					if reason = strings.TrimSpace(reason); reason == "" {
						reason = "(no justification)"
					}
					pos := fset.Position(c.Pos())
					fmt.Fprintf(w, "%s:%d: %s: %s\n", pos.Filename, pos.Line, analyzer, reason)
					total++
				}
			}
			return nil
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "autopipelint -waivers: %v\n", err)
			return 1
		}
	}
	fmt.Fprintf(w, "%d live waiver(s)\n", total)
	return 0
}

func report(diags []analysis.Diagnostic) int {
	if len(diags) == 0 {
		return 0
	}
	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%s: %s: %s\n", d.Pos, d.Analyzer, d.Message)
	}
	return 1
}
