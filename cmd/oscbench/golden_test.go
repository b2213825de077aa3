package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/figures"
)

// TestGoldenFigAll renders `oscbench -fig all -grid 4 -sweep 5` through
// run, on the default and the serial engine, and compares both with
// the committed reference output. Every statistical test accepts a
// changed seed salt or a reordered float sum; only this byte compare
// tells an intended re-baseline from an accident. Re-baseline with
//
//	go run ./cmd/oscbench -fig all -grid 4 -sweep 5 > testdata/golden/fig-all.txt
//
// and commit the diff with the change that caused it.
func TestGoldenFigAll(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("..", "..", "testdata", "golden", "fig-all.txt"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []engine.Engine{engine.WordParallel, engine.Serial} {
		cfg := figures.Defaults()
		cfg.GridN, cfg.SweepN, cfg.Engine = 4, 5, e
		var got bytes.Buffer
		if err := run(context.Background(), &got, "all", cfg, 0, false); err != nil {
			t.Fatalf("%s engine: %v", e.Name(), err)
		}
		if got.String() != string(want) {
			t.Errorf("%s engine: -fig all -grid 4 -sweep 5 differs from testdata/golden/fig-all.txt (-golden +got):\n%s",
				e.Name(), lineDiff(string(want), got.String()))
		}
	}
}

// lineDiff lists the first 20 lines at which got differs from want,
// position by position, as -want/+got pairs.
func lineDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var b strings.Builder
	for i, shown := 0, 0; i < max(len(w), len(g)) && shown < 20; i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			fmt.Fprintf(&b, "line %d:\n-%s\n+%s\n", i+1, wl, gl)
			shown++
		}
	}
	return b.String()
}
