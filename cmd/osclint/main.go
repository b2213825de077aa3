// Command osclint runs the repo's static-analysis suite
// (internal/lint) over the module: six analyzers that enforce the
// determinism, oracle-pair, error-propagation, hot-loop allocation and
// no-test-only-code conventions every engine in this reproduction
// relies on.
//
// Usage:
//
//	osclint ./...                 # whole module (what CI runs)
//	osclint ./internal/... ./cmd/...
//	osclint -rules detrand,mapiter ./internal/optics
//	osclint -json ./...           # machine-readable findings
//	osclint -all ./...            # include suppressed findings, marked
//	osclint -exitzero ./...       # list findings without failing
//
// Exit status: 0 when clean, 1 when findings remain (unless
// -exitzero), 2 on a driver error. Rules are documented in
// internal/lint/doc.go; intentional violations are annotated in place
// with `//osclint:ignore rule reason`.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/lint"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array")
	all := flag.Bool("all", false, "include suppressed findings, marked with their reasons")
	exitZero := flag.Bool("exitzero", false, "exit 0 even when findings remain (listing mode)")
	rules := flag.String("rules", "", "comma-separated rule subset (default: all of "+strings.Join(lint.AnalyzerNames(), ",")+")")
	flag.Parse()

	root, err := findModuleRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "osclint:", err)
		os.Exit(2)
	}
	opt := lint.Options{All: *all}
	if *rules != "" {
		opt.Rules = strings.Split(*rules, ",")
	}
	patterns := flag.Args()
	findings, err := lint.Run(root, patterns, opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "osclint:", err)
		os.Exit(2)
	}
	if *jsonOut {
		if err := lint.WriteJSON(os.Stdout, findings); err != nil {
			fmt.Fprintln(os.Stderr, "osclint:", err)
			os.Exit(2)
		}
	} else {
		for _, f := range findings {
			fmt.Println(f)
		}
	}
	unsuppressed := 0
	for _, f := range findings {
		if !f.Suppressed {
			unsuppressed++
		}
	}
	if unsuppressed > 0 {
		if !*jsonOut {
			fmt.Printf("osclint: %d finding(s)\n", unsuppressed)
		}
		if !*exitZero {
			os.Exit(1)
		}
	}
}

// findModuleRoot walks up from the working directory to the nearest
// go.mod, so osclint runs correctly from any subdirectory.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}
