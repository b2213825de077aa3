package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestGoldenQuickstart compares the walkthrough's output with the
// committed reference. Re-baseline with
//
//	go run ./examples/quickstart > testdata/golden/quickstart.txt
//
// and commit the diff with the change that caused it.
func TestGoldenQuickstart(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("..", "..", "testdata", "golden", "quickstart.txt"))
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := run(&got); err != nil {
		t.Fatal(err)
	}
	if got.String() == string(want) {
		return
	}
	w, g := strings.Split(string(want), "\n"), strings.Split(got.String(), "\n")
	var diff strings.Builder
	for i := 0; i < max(len(w), len(g)); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			diff.WriteString("-" + wl + "\n+" + gl + "\n")
		}
	}
	t.Errorf("quickstart output differs from testdata/golden/quickstart.txt (-golden +got):\n%s", diff.String())
}
