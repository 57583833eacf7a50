package autopipe_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

var (
	fuzzFuncRe = regexp.MustCompile(`(?m)^func (Fuzz\w*)\(\w+ \*testing\.F\)`)
	// makeFuzzRe matches a fuzz-smoke recipe line: the -fuzz target, then
	// the package as the line's last word.
	makeFuzzRe = regexp.MustCompile(`-fuzz=(\w+)\b.*\s(\./\S+)\s*$`)
	// ciFuzzRe matches one fuzz matrix entry: a target line and the package
	// line under it.
	ciFuzzRe = regexp.MustCompile(`-\s+target:\s*(\w+)\s*\n\s*package:\s*(\S+)`)
)

// TestFuzzTargetsListed finds every fuzz target in the module and requires
// the Makefile's fuzz-smoke target and the CI workflow's fuzz matrix to run
// each one, with its package, and nothing else. The three lists are
// otherwise kept in step by hand.
func TestFuzzTargetsListed(t *testing.T) {
	var found []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "." {
				return nil
			}
			// Fixture trees, hidden directories and nested modules
			// (perfbench) are not part of this module's packages.
			if d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range fuzzFuncRe.FindAllSubmatch(src, -1) {
			found = append(found, string(m[1])+" "+pkgPath(filepath.Dir(path)))
		}
		return nil
	})
	if err != nil {
		t.Fatalf("walk module: %v", err)
	}
	if len(found) == 0 {
		t.Fatal("found no fuzz targets in the module")
	}

	makefile, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	var inMake []string
	inRecipe := false
	for _, line := range strings.Split(string(makefile), "\n") {
		switch {
		case strings.HasPrefix(line, "fuzz-smoke:"):
			inRecipe = true
		case inRecipe && strings.HasPrefix(line, "\t"):
			if m := makeFuzzRe.FindStringSubmatch(line); m != nil {
				inMake = append(inMake, m[1]+" "+m[2])
			}
		default:
			inRecipe = false
		}
	}

	ci, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	var inCI []string
	for _, m := range ciFuzzRe.FindAllStringSubmatch(string(ci), -1) {
		inCI = append(inCI, m[1]+" "+m[2])
	}

	slices.Sort(found)
	for _, list := range []struct {
		where   string
		entries []string
	}{{"Makefile fuzz-smoke", inMake}, {"ci.yml fuzz-smoke matrix", inCI}} {
		for _, f := range found {
			if !slices.Contains(list.entries, f) {
				t.Errorf("%s does not run %s", list.where, f)
			}
		}
		for _, e := range list.entries {
			if !slices.Contains(found, e) {
				t.Errorf("%s runs %s, which is not a fuzz target in that package", list.where, e)
			}
		}
	}
}

// pkgPath renders a module-relative directory as a go test package pattern.
func pkgPath(dir string) string {
	if dir == "." {
		return "."
	}
	return "./" + filepath.ToSlash(dir)
}
