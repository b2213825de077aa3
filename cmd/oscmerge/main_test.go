package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dse"
	"repro/internal/engine"
	"repro/internal/stochastic"
)

func testKey(n int) dse.CheckpointKey {
	return dse.CheckpointKey{Figure: "merge-cli-test", Config: "f(i)=derive(seed,i)", Seed: 7, N: n}
}

func testPoint(i int) float64 {
	return float64(stochastic.DeriveSeed(7, i)%1000) / 3.0
}

// writeShards runs the test sweep as a family of shard legs, the way
// oscbench's -shard legs would, returning the snapshot paths.
func writeShards(t *testing.T, dir string, total, shards int) []string {
	t.Helper()
	paths := make([]string, shards)
	for k := 0; k < shards; k++ {
		paths[k] = dse.ShardCheckpointPath(filepath.Join(dir, "ck.json"), k, shards)
		cp := dse.NewCheckpointer[float64](paths[k], 0, testKey(total))
		if err := cp.RunShard(context.Background(), engine.Serial, k, shards, testPoint); err != nil {
			t.Fatalf("shard %d/%d: err = %v", k, shards, err)
		}
	}
	return paths
}

// TestRunMergesAndSummarizes: the happy path merges a complete shard
// family and reports per-input contributions.
func TestRunMergesAndSummarizes(t *testing.T) {
	dir := t.TempDir()
	paths := writeShards(t, dir, 11, 3)
	out := filepath.Join(dir, "merged.json")
	var buf bytes.Buffer
	if err := run(&buf, out, paths); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "merged 11/11 points") {
		t.Errorf("summary does not report the merge: %q", buf.String())
	}
	for _, p := range paths {
		if !strings.Contains(buf.String(), p) {
			t.Errorf("summary does not credit input %s: %q", p, buf.String())
		}
	}
	// The merged snapshot restores completely under the same key.
	cp := dse.NewCheckpointer[float64](out, 0, testKey(11))
	if restored, err := cp.Load(); err != nil || restored != 11 {
		t.Fatalf("merged checkpoint: restored=%d err=%v", restored, err)
	}
}

// TestRunFlagContract: a missing -o and an empty input list are loud
// errors before any file is touched.
func TestRunFlagContract(t *testing.T) {
	if err := run(&bytes.Buffer{}, "", []string{"a.json"}); err == nil || !strings.Contains(err.Error(), "-o") {
		t.Errorf("missing -o: err = %v", err)
	}
	if err := run(&bytes.Buffer{}, "out.json", nil); err == nil {
		t.Error("empty input list accepted")
	}
}

// TestRunFailsClosedOnGap: a family missing one shard refuses to merge
// and leaves no output file.
func TestRunFailsClosedOnGap(t *testing.T) {
	dir := t.TempDir()
	paths := writeShards(t, dir, 9, 3)
	out := filepath.Join(dir, "merged.json")
	err := run(&bytes.Buffer{}, out, paths[:2])
	if err == nil || !strings.Contains(err.Error(), "missing") {
		t.Fatalf("gapped merge: err = %v, want a missing-points error", err)
	}
	if _, statErr := os.Stat(out); !errors.Is(statErr, os.ErrNotExist) {
		t.Error("failed merge left an output file")
	}
}

// TestRunFailsClosedOnForeignShard: mixing in a snapshot of a
// different study is refused with the stale-checkpoint error.
func TestRunFailsClosedOnForeignShard(t *testing.T) {
	dir := t.TempDir()
	paths := writeShards(t, dir, 8, 2)
	foreign := filepath.Join(dir, "foreign.json")
	otherKey := testKey(8)
	otherKey.Seed++
	if _, err := dse.NewCheckpointer[float64](foreign, 0, otherKey).
		Run(context.Background(), engine.Serial, testPoint); err != nil {
		t.Fatal(err)
	}
	err := run(&bytes.Buffer{}, filepath.Join(dir, "merged.json"), []string{paths[0], foreign, paths[1]})
	if !errors.Is(err, dse.ErrStaleCheckpoint) {
		t.Fatalf("foreign shard: err = %v, want ErrStaleCheckpoint", err)
	}
}

// TestRunFailsClosedOnDisagreement: two snapshots claiming the same
// point with different bytes name the point and refuse.
func TestRunFailsClosedOnDisagreement(t *testing.T) {
	dir := t.TempDir()
	paths := writeShards(t, dir, 6, 2)
	lying := filepath.Join(dir, "lying.json")
	cp := dse.NewCheckpointer[float64](lying, 0, testKey(6))
	if err := cp.RunShard(context.Background(), engine.Serial, 0, 2, func(i int) float64 {
		return testPoint(i) + 1
	}); err != nil {
		t.Fatal(err)
	}
	err := run(&bytes.Buffer{}, filepath.Join(dir, "merged.json"), append(paths, lying))
	if err == nil || !strings.Contains(err.Error(), "disagrees") {
		t.Fatalf("disagreeing merge: err = %v, want a disagreement error", err)
	}
}
