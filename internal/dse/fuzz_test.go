package dse

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
)

// fuzzKey is the study the checkpoint fuzz seeds were saved under: the
// yield fixture's first four dies behind a key that, unlike
// YieldStudy.Key, does not render core.Params, so the seeds' header
// hashes stay valid when the device parameters change. Four points
// keep the seeds small enough for the fuzzer to minimize quickly.
var fuzzKey = CheckpointKey{Figure: "fuzz", Config: "yield fixture dies", Seed: 99, N: 4}

// FuzzCheckpointLoad feeds arbitrary bytes to Checkpointer.Load as a
// snapshot of fuzzKey's study. Load must never panic. When it
// accepts a file, the restored count is the number of completed
// entries and at most Key.N, Results holds Key.N entries, and a Save
// then Load restores the same results. The seed corpus
// (testdata/fuzz/FuzzCheckpointLoad) holds complete, partial, stale,
// short and corrupt snapshots.
func FuzzCheckpointLoad(f *testing.F) {
	key := fuzzKey
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "ck.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		cp := NewCheckpointer[core.DieOutcome](path, 0, key)
		restored, err := cp.Load()
		if err != nil {
			return
		}
		results := cp.Results()
		completed := 0
		for _, r := range results {
			if r != nil {
				completed++
			}
		}
		if len(results) != key.N || restored != completed || restored > key.N {
			t.Fatalf("Load restored %d with %d of %d entries completed, want the completed count of %d entries",
				restored, completed, len(results), key.N)
		}
		cp.Path = filepath.Join(dir, "again.json")
		if err := cp.Save(); err != nil {
			t.Fatal(err)
		}
		again := NewCheckpointer[core.DieOutcome](cp.Path, 0, key)
		if n, err := again.Load(); err != nil || n != restored {
			t.Fatalf("reloading the saved snapshot: restored=%d err=%v, want %d", n, err, restored)
		}
		if !reflect.DeepEqual(again.Results(), results) {
			t.Fatalf("Save then Load changed the results:\n got %v\nwant %v", again.Results(), results)
		}
	})
}

// FuzzMergeCheckpoints merges two arbitrary snapshot files. The merge
// must never panic. When it succeeds, the output loads under the
// inputs' key and restores every point; when it fails, no output file
// exists. The seed corpus (testdata/fuzz/FuzzMergeCheckpoints) holds a
// complementary shard pair, a gapped pair, an agreeing overlap, a
// disagreeing overlap, a foreign key and a corrupt file.
func FuzzMergeCheckpoints(f *testing.F) {
	f.Fuzz(func(t *testing.T, a, b []byte) {
		dir := t.TempDir()
		inputs := []string{filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")}
		for i, data := range [][]byte{a, b} {
			if err := os.WriteFile(inputs[i], data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		out := filepath.Join(dir, "merged.json")
		rep, err := MergeCheckpoints(out, inputs)
		if err != nil {
			if _, statErr := os.Stat(out); !errors.Is(statErr, os.ErrNotExist) {
				t.Fatalf("failed merge (%v) left %s behind (stat: %v)", err, out, statErr)
			}
			return
		}
		restored, err := NewCheckpointer[json.RawMessage](out, 0, rep.Key).Load()
		if err != nil || restored != rep.Key.N {
			t.Fatalf("merged checkpoint: restored=%d err=%v, want all %d points", restored, err, rep.Key.N)
		}
	})
}
