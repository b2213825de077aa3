package dse

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/engine"
)

// shardSnapshots runs the numeric sweep as n separate shard processes
// (fresh checkpointer each, shard-tagged paths) and returns the
// snapshot paths — the distributed run every merge test starts from.
func shardSnapshots(t *testing.T, dir string, total, shards int) []string {
	t.Helper()
	paths := make([]string, shards)
	for k := 0; k < shards; k++ {
		paths[k] = ShardCheckpointPath(filepath.Join(dir, "ck.json"), k, shards)
		cp := NewCheckpointer[float64](paths[k], 0, numericKey(total))
		if err := cp.RunShard(context.Background(), engine.WordParallel, k, shards, numericPoint); err != nil {
			t.Fatalf("shard %d/%d run err = %v", k, shards, err)
		}
	}
	return paths
}

// TestShardCheckpointPath pins the tag format the CI job and docs use.
func TestShardCheckpointPath(t *testing.T) {
	if got := ShardCheckpointPath("out/yield.json", 0, 3); got != "out/yield.shard0of3.json" {
		t.Errorf("got %q", got)
	}
	if got := ShardCheckpointPath("yield", 2, 4); got != "yield.shard2of4" {
		t.Errorf("extensionless: got %q", got)
	}
}

// owns is the round-robin ownership the shard tests check RunShard
// against: shard k of n owns point i when i%n == k.
func owns(i, k, n int) bool { return i%n == k }

// TestCheckpointerShardRunOwnsTrueIndices: a sharded checkpoint run
// completes exactly the owned point indices, returns nil once they are
// all in the snapshot, and persists a loadable snapshot of its slice.
func TestCheckpointerShardRunOwnsTrueIndices(t *testing.T) {
	const n = 23
	path := filepath.Join(t.TempDir(), "ck.json")
	cp := NewCheckpointer[float64](path, 4, numericKey(n))
	if err := cp.RunShard(context.Background(), engine.Serial, 1, 3, numericPoint); err != nil {
		t.Fatalf("err = %v, want nil once the owned points are in", err)
	}
	results := cp.Results()
	completed := 0
	for i, r := range results {
		switch {
		case owns(i, 1, 3) && r == nil:
			t.Errorf("owned point %d not recorded", i)
		case owns(i, 1, 3) && *r != numericPoint(i):
			t.Errorf("point %d = %v, want %v", i, *r, numericPoint(i))
		case !owns(i, 1, 3) && r != nil:
			t.Errorf("non-owned point %d was computed", i)
		}
		if r != nil {
			completed++
		}
	}
	// The snapshot restores exactly the owned slice.
	cp2 := NewCheckpointer[float64](path, 0, numericKey(n))
	restored, err := cp2.Load()
	if err != nil || restored != completed {
		t.Fatalf("Load: restored=%d err=%v, want %d", restored, err, completed)
	}
}

// TestCheckpointerShardResumeFiltersByPointIndex guards the remap trap
// RunShard's point list exists for: after a partial restore the
// dispatch runs over the missing subset, where position j is not point
// j — a resume must still compute exactly the owned missing points.
func TestCheckpointerShardResumeFiltersByPointIndex(t *testing.T) {
	const n = 30
	path := filepath.Join(t.TempDir(), "ck.json")

	// Interrupt the shard run partway.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var completed atomic.Int32
	cp := NewCheckpointer[float64](path, 2, numericKey(n))
	err := cp.RunShard(ctx, engine.Serial, 2, 3, func(i int) float64 {
		if completed.Add(1) == 4 {
			cancel()
		}
		return numericPoint(i)
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted shard run err = %v, want context.Canceled", err)
	}

	// Resume: only owned, still-missing points run, by true index.
	cp2 := NewCheckpointer[float64](path, 0, numericKey(n))
	restored, err := cp2.Load()
	if err != nil || restored == 0 {
		t.Fatalf("Load: restored=%d err=%v", restored, err)
	}
	ran := make(map[int]bool)
	err = cp2.RunShard(context.Background(), engine.Serial, 2, 3, func(i int) float64 {
		if ran[i] {
			t.Errorf("point %d ran twice on resume", i)
		}
		ran[i] = true
		return numericPoint(i)
	})
	if err != nil {
		t.Fatalf("resumed shard run err = %v", err)
	}
	for i := range ran {
		if !owns(i, 2, 3) {
			t.Errorf("resume ran non-owned point %d", i)
		}
	}
	for i, r := range cp2.Results() {
		if owns(i, 2, 3) && r == nil {
			t.Errorf("owned point %d still missing after resume", i)
		}
	}
}

// TestCheckpointerShardInvalidSpecFailsClosed: a malformed shard spec
// is rejected before any dispatch.
func TestCheckpointerShardInvalidSpecFailsClosed(t *testing.T) {
	for _, spec := range [][2]int{{3, 3}, {-1, 2}, {0, 0}} {
		cp := NewCheckpointer[float64](filepath.Join(t.TempDir(), "ck.json"), 0, numericKey(5))
		ran := false
		err := cp.RunShard(context.Background(), engine.Serial, spec[0], spec[1], func(i int) float64 {
			ran = true
			return 0
		})
		if err == nil || ran {
			t.Fatalf("invalid shard %d/%d: err=%v ran=%v, want error without dispatch", spec[0], spec[1], err, ran)
		}
	}
}

// TestMergeCheckpointsByteIdenticalToUnsharded is the tentpole's core
// claim in miniature: merging K shard snapshots produces a checkpoint
// file byte-identical to the one an unsharded run saves, and resuming
// from it re-runs nothing.
func TestMergeCheckpointsByteIdenticalToUnsharded(t *testing.T) {
	const n = 31
	dir := t.TempDir()

	// Unsharded reference snapshot.
	refPath := filepath.Join(dir, "ref.json")
	ref, err := NewCheckpointer[float64](refPath, 0, numericKey(n)).
		Run(context.Background(), engine.Serial, numericPoint)
	if err != nil {
		t.Fatal(err)
	}

	// Three shard processes, then the merge.
	paths := shardSnapshots(t, dir, n, 3)
	mergedPath := filepath.Join(dir, "merged.json")
	rep, err := MergeCheckpoints(mergedPath, paths)
	if err != nil {
		t.Fatal(err)
	}
	if rep.N != n || rep.Merged != n || rep.Overlap != 0 {
		t.Errorf("report = %+v, want %d merged, 0 overlap", rep, n)
	}
	sum := 0
	for _, c := range rep.PerInput {
		sum += c
	}
	if sum != n {
		t.Errorf("per-input contributions %v sum to %d, want %d", rep.PerInput, sum, n)
	}

	refBytes, err := os.ReadFile(refPath)
	if err != nil {
		t.Fatal(err)
	}
	gotBytes, err := os.ReadFile(mergedPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(refBytes, gotBytes) {
		t.Fatalf("merged checkpoint is not byte-identical to the unsharded snapshot\n got: %s\nwant: %s", gotBytes, refBytes)
	}

	// Resume from the merged file: zero re-runs, identical results.
	cp := NewCheckpointer[float64](mergedPath, 0, numericKey(n))
	if _, err := cp.Load(); err != nil {
		t.Fatal(err)
	}
	got, err := cp.Run(context.Background(), engine.Serial, func(i int) float64 {
		t.Errorf("resume from merged checkpoint re-ran point %d", i)
		return numericPoint(i)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ref) {
		t.Error("results resumed from merged checkpoint diverge from the unsharded run")
	}
}

// TestMergeCheckpointsAgreedOverlapCounts: byte-identical overlapping
// entries merge fine and are reported, because re-running a shard (or
// a wider one) is legitimate in a distributed recovery.
func TestMergeCheckpointsAgreedOverlapCounts(t *testing.T) {
	const n = 12
	dir := t.TempDir()
	paths := shardSnapshots(t, dir, n, 2)
	// A full unsharded snapshot overlaps every index of both shards.
	fullPath := filepath.Join(dir, "full.json")
	if _, err := NewCheckpointer[float64](fullPath, 0, numericKey(n)).
		Run(context.Background(), engine.Serial, numericPoint); err != nil {
		t.Fatal(err)
	}
	rep, err := MergeCheckpoints(filepath.Join(dir, "merged.json"), append(paths, fullPath))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Overlap != n {
		t.Errorf("Overlap = %d, want %d", rep.Overlap, n)
	}
}

// TestMergeCheckpointsFailsClosedOnForeignKey: a snapshot from a
// different study refuses to merge.
func TestMergeCheckpointsFailsClosedOnForeignKey(t *testing.T) {
	const n = 10
	dir := t.TempDir()
	paths := shardSnapshots(t, dir, n, 2)
	foreign := filepath.Join(dir, "foreign.json")
	otherKey := numericKey(n)
	otherKey.Seed++
	if _, err := NewCheckpointer[float64](foreign, 0, otherKey).
		Run(context.Background(), engine.Serial, numericPoint); err != nil {
		t.Fatal(err)
	}
	_, err := MergeCheckpoints(filepath.Join(dir, "merged.json"), []string{paths[0], foreign, paths[1]})
	if !errors.Is(err, ErrStaleCheckpoint) {
		t.Fatalf("foreign-key merge err = %v, want ErrStaleCheckpoint", err)
	}
}

// TestMergeCheckpointsFailsClosedOnDisagreement: two snapshots claiming
// the same index with different bytes refuse to merge, naming the
// index and both files.
func TestMergeCheckpointsFailsClosedOnDisagreement(t *testing.T) {
	const n = 9
	dir := t.TempDir()
	paths := shardSnapshots(t, dir, n, 2)
	// A corrupted copy of shard 0: same key, one altered value.
	lying := filepath.Join(dir, "lying.json")
	cp := NewCheckpointer[float64](lying, 0, numericKey(n))
	if err := cp.RunShard(context.Background(), engine.Serial, 0, 2, func(i int) float64 {
		if i == 4 {
			return numericPoint(i) + 1
		}
		return numericPoint(i)
	}); err != nil {
		t.Fatal(err)
	}
	_, err := MergeCheckpoints(filepath.Join(dir, "merged.json"), []string{paths[0], paths[1], lying})
	if err == nil {
		t.Fatal("disagreeing merge succeeded")
	}
	if !strings.Contains(err.Error(), "point 4") || !strings.Contains(err.Error(), "disagrees") {
		t.Errorf("disagreement error does not name the point: %v", err)
	}
}

// TestMergeCheckpointsFailsClosedOnGaps: a missing shard leaves
// uncovered indices and the merge refuses, naming the gap size.
func TestMergeCheckpointsFailsClosedOnGaps(t *testing.T) {
	const n = 10
	dir := t.TempDir()
	paths := shardSnapshots(t, dir, n, 3)
	out := filepath.Join(dir, "merged.json")
	_, err := MergeCheckpoints(out, []string{paths[0], paths[2]})
	if err == nil {
		t.Fatal("gapped merge succeeded")
	}
	if !strings.Contains(err.Error(), "missing") {
		t.Errorf("gap error does not say missing: %v", err)
	}
	if _, statErr := os.Stat(out); !errors.Is(statErr, os.ErrNotExist) {
		t.Error("failed merge left an output file behind")
	}
}

// TestMergeCheckpointsRejectsBadInputs: empty input lists, unreadable
// files, corrupt JSON and self-inconsistent headers all fail closed.
func TestMergeCheckpointsRejectsBadInputs(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "merged.json")
	if _, err := MergeCheckpoints(out, nil); err == nil {
		t.Error("empty input list accepted")
	}
	if _, err := MergeCheckpoints(out, []string{filepath.Join(dir, "nope.json")}); err == nil {
		t.Error("missing input accepted")
	}
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := MergeCheckpoints(out, []string{bad}); err == nil {
		t.Error("corrupt input accepted")
	}
	// A header whose hash does not match its own key (tampered file).
	tampered := filepath.Join(dir, "tampered.json")
	if err := os.WriteFile(tampered,
		[]byte(`{"version":1,"hash":"deadbeef","key":{"figure":"x","config":"y","seed":1,"n":1},"results":[null]}`),
		0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := MergeCheckpoints(out, []string{tampered}); !errors.Is(err, ErrStaleCheckpoint) {
		t.Errorf("self-inconsistent input err = %v, want ErrStaleCheckpoint", err)
	}
}
