package main

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestGoldenPGM runs `gammasim -size 48 -stream 1024` through run and
// compares the SHA-256 of the optically corrected PGM with the
// committed reference digest. Re-baseline with
//
//	go run ./cmd/gammasim -size 48 -stream 1024 -out gammasim.pgm
//	sha256sum gammasim.pgm > testdata/golden/gammasim.sha256 && rm gammasim.pgm
//
// and commit the diff with the change that caused it.
func TestGoldenPGM(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("..", "..", "testdata", "golden", "gammasim.sha256"))
	if err != nil {
		t.Fatal(err)
	}
	want, _, _ := strings.Cut(string(golden), " ")

	out := filepath.Join(t.TempDir(), "gammasim.pgm")
	// The flag defaults of main, with -size 48 -stream 1024.
	if err := run(0.45, 6, 48, 1024, 0.3, "", out, 42); err != nil {
		t.Fatal(err)
	}
	pgm, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(pgm)
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("gammasim -size 48 -stream 1024 PGM sha256 = %s, testdata/golden/gammasim.sha256 has %s", got, want)
	}
}
