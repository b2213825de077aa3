package lint

import (
	"encoding/json"
	"fmt"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Finding is one analyzer report, anchored to a source position.
type Finding struct {
	Pos     token.Position
	Rule    string
	Message string
	// Suppressed marks findings covered by an //osclint:ignore
	// comment; Reason carries the annotation's justification. Run
	// filters suppressed findings out unless Options.All is set.
	Suppressed bool
	Reason     string
}

func (f Finding) String() string {
	s := fmt.Sprintf("%s:%d:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Rule, f.Message)
	if f.Suppressed {
		s += fmt.Sprintf(" (suppressed: %s)", f.Reason)
	}
	return s
}

// findingJSON is the -json wire form of a Finding.
type findingJSON struct {
	File       string `json:"file"`
	Line       int    `json:"line"`
	Col        int    `json:"col"`
	Rule       string `json:"rule"`
	Message    string `json:"message"`
	Suppressed bool   `json:"suppressed,omitempty"`
	Reason     string `json:"reason,omitempty"`
}

// WriteJSON emits the findings as a JSON array (machine-readable form
// behind `osclint -json`).
func WriteJSON(w io.Writer, fs []Finding) error {
	out := make([]findingJSON, len(fs))
	for i, f := range fs {
		out[i] = findingJSON{
			File: f.Pos.Filename, Line: f.Pos.Line, Col: f.Pos.Column,
			Rule: f.Rule, Message: f.Message,
			Suppressed: f.Suppressed, Reason: f.Reason,
		}
	}
	buf, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", buf)
	return err
}

// Analyzer is one named rule: a pure function from a loaded package to
// findings.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(p *Package) []Finding
}

// Analyzers lists every rule in the suite, in report order.
var Analyzers = []*Analyzer{DetRand, MapIter, OraclePair, ErrProp, HotAlloc, TestOnly}

// AnalyzerNames returns the registered rule names.
func AnalyzerNames() []string {
	names := make([]string, len(Analyzers))
	for i, a := range Analyzers {
		names[i] = a.Name
	}
	return names
}

// Options configures a Run.
type Options struct {
	// Rules restricts the run to the named analyzers (nil = all).
	Rules []string
	// All keeps suppressed findings in the result, marked, instead of
	// filtering them.
	All bool
}

// Run loads every package matched by the patterns (relative to the
// module root), runs the selected analyzers and returns the findings
// sorted by position. Suppressed findings are filtered out unless
// opt.All is set; malformed //osclint:ignore comments are themselves
// reported under the "ignore" pseudo-rule.
func Run(modRoot string, patterns []string, opt Options) ([]Finding, error) {
	l, err := NewLoader(modRoot)
	if err != nil {
		return nil, err
	}
	dirs, err := ExpandPatterns(modRoot, patterns)
	if err != nil {
		return nil, err
	}
	selected, err := selectAnalyzers(opt.Rules)
	if err != nil {
		return nil, err
	}
	var findings []Finding
	for _, dir := range dirs {
		p, err := l.Load(dir)
		if err != nil {
			return nil, err
		}
		if p == nil { // no buildable Go files (e.g. test-only dir)
			continue
		}
		sup, bad := scanSuppressions(p)
		findings = append(findings, bad...)
		for _, a := range selected {
			for _, f := range a.Run(p) {
				if reason, ok := sup.covers(f); ok {
					f.Suppressed, f.Reason = true, reason
				}
				findings = append(findings, f)
			}
		}
	}
	if !opt.All {
		kept := findings[:0]
		for _, f := range findings {
			if !f.Suppressed {
				kept = append(kept, f)
			}
		}
		findings = kept
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Rule < b.Rule
	})
	return findings, nil
}

func selectAnalyzers(rules []string) ([]*Analyzer, error) {
	if len(rules) == 0 {
		return Analyzers, nil
	}
	byName := map[string]*Analyzer{}
	for _, a := range Analyzers {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, r := range rules {
		a := byName[strings.TrimSpace(r)]
		if a == nil {
			return nil, fmt.Errorf("lint: unknown rule %q (have %s)", r, strings.Join(AnalyzerNames(), ", "))
		}
		out = append(out, a)
	}
	return out, nil
}

// ExpandPatterns resolves go-style package patterns ("./...",
// "./internal/...", "cmd/osclint") into the list of directories under
// root that contain .go files. Directories named testdata, vendor, or
// starting with "." or "_" are skipped, matching the go tool's walk.
func ExpandPatterns(root string, patterns []string) ([]string, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	seen := map[string]bool{}
	var dirs []string
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		recursive := false
		if pat == "..." || strings.HasSuffix(pat, "/...") {
			recursive = true
			pat = strings.TrimSuffix(strings.TrimSuffix(pat, "..."), "/")
		}
		if pat == "" || pat == "." {
			pat = root
		} else if !filepath.IsAbs(pat) {
			pat = filepath.Join(root, pat)
		}
		info, err := os.Stat(pat)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		if !info.IsDir() {
			return nil, fmt.Errorf("lint: pattern %q is not a directory", pat)
		}
		if !recursive {
			if hasGoFiles(pat) {
				add(pat)
			}
			continue
		}
		err = filepath.WalkDir(pat, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != pat && (name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			if hasGoFiles(path) {
				add(path)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			return true
		}
	}
	return false
}
