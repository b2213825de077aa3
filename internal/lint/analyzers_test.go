package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// moduleRoot walks up from the test's working directory to go.mod —
// the same resolution cmd/osclint uses.
func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above test directory")
		}
		dir = parent
	}
}

// wantMarkers reads a fixture directory's `// want rule [rule...]`
// markers into a multiset keyed by file:line:rule.
func wantMarkers(t *testing.T, dir string) map[string]int {
	t.Helper()
	want := map[string]int{}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		buf, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for lineNo, line := range strings.Split(string(buf), "\n") {
			_, marker, ok := strings.Cut(line, "// want ")
			if !ok {
				continue
			}
			rules := strings.Fields(marker)
			// Only real markers count: every field must be a rule name.
			// This keeps prose like `// want markers` in doc comments
			// from being read as expectations.
			valid := len(rules) > 0
			for _, r := range rules {
				if !isRuleName(r) {
					valid = false
				}
			}
			if !valid {
				continue
			}
			for _, rule := range rules {
				want[fmt.Sprintf("%s:%d:%s", e.Name(), lineNo+1, rule)]++
			}
		}
	}
	return want
}

func isRuleName(s string) bool {
	for _, a := range Analyzers {
		if s == a.Name {
			return true
		}
	}
	return s == "ignore"
}

// runFixture lints one testdata package with the given rules and
// diffs the findings against the fixture's want markers.
func runFixture(t *testing.T, fixture string, rules ...string) {
	t.Helper()
	root := moduleRoot(t)
	rel := filepath.Join("internal", "lint", "testdata", "src", fixture)
	findings, err := Run(root, []string{rel}, Options{Rules: rules})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	got := map[string]int{}
	for _, f := range findings {
		got[fmt.Sprintf("%s:%d:%s", filepath.Base(f.Pos.Filename), f.Pos.Line, f.Rule)]++
	}
	want := wantMarkers(t, filepath.Join(root, rel))
	keys := map[string]bool{}
	for k := range got {
		keys[k] = true
	}
	for k := range want {
		keys[k] = true
	}
	sorted := make([]string, 0, len(keys))
	for k := range keys {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)
	for _, k := range sorted {
		if got[k] != want[k] {
			t.Errorf("%s: got %d finding(s), fixture wants %d", k, got[k], want[k])
		}
	}
	if t.Failed() {
		for _, f := range findings {
			t.Logf("finding: %s", f)
		}
	}
}

// The injected-violation gates: each rule must catch its fixture's
// deliberate violations and pass the conforming patterns. These are
// what keeps CI failing on a seeded time.Now RNG in a worker body or
// an unsorted map-range feeding a renderer.

func TestDetRandFixture(t *testing.T)    { runFixture(t, "detrand", "detrand") }
func TestMapIterFixture(t *testing.T)    { runFixture(t, "mapiter", "mapiter") }
func TestOraclePairFixture(t *testing.T) { runFixture(t, "oraclepair", "oraclepair") }
func TestErrPropFixture(t *testing.T)    { runFixture(t, "errprop", "errprop") }
func TestHotAllocFixture(t *testing.T)   { runFixture(t, "hotalloc", "hotalloc") }
func TestTestOnlyFixture(t *testing.T)   { runFixture(t, "testonly", "testonly") }

// TestRepoIsClean is the acceptance gate run inside the test suite:
// the whole module must lint clean (zero unsuppressed findings) with
// every rule enabled.
func TestRepoIsClean(t *testing.T) {
	root := moduleRoot(t)
	findings, err := Run(root, []string{"./..."}, Options{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, f := range findings {
		t.Errorf("unsuppressed finding: %s", f)
	}
}
