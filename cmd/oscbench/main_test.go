package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dse"
	"repro/internal/figures"
)

func runErr(t *testing.T, fig string, cfg figures.Config) error {
	t.Helper()
	return run(context.Background(), io.Discard, fig, cfg, 0, false)
}

// TestCheckpointFlagValidation pins the flag contract: -resume without
// a snapshot file and checkpoint flags on non-yield figures are loud
// errors, never silent no-ops.
func TestCheckpointFlagValidation(t *testing.T) {
	base := figures.Defaults()

	cfg := base
	cfg.Resume = true
	err := runErr(t, "yield", cfg)
	if err == nil || !strings.Contains(err.Error(), "-resume needs a -checkpoint") {
		t.Errorf("-resume without -checkpoint: err = %v, want a -checkpoint complaint", err)
	}

	for _, fig := range []string{"5a", "waterfall", "all"} {
		cfg = base
		cfg.Checkpoint = "snap.json"
		err = runErr(t, fig, cfg)
		if err == nil || !strings.Contains(err.Error(), "-fig yield only") {
			t.Errorf("-checkpoint with -fig %s: err = %v, want a yield-only complaint", fig, err)
		}
		if err != nil && !strings.Contains(err.Error(), fig) {
			t.Errorf("-checkpoint with -fig %s: err %q does not name the offending figure", fig, err)
		}
	}

	// Both flags together on a non-yield figure: still one clear error.
	cfg = base
	cfg.Checkpoint = "snap.json"
	cfg.Resume = true
	if err = runErr(t, "edge", cfg); err == nil || !strings.Contains(err.Error(), "-fig yield only") {
		t.Errorf("-checkpoint -resume with -fig edge: err = %v", err)
	}
}

// TestParseShard pins the -shard spec grammar: k/n with 0 <= k < n,
// empty for unsharded, everything else a loud parse error.
func TestParseShard(t *testing.T) {
	if k, n, err := parseShard(""); k != 0 || n != 0 || err != nil {
		t.Errorf(`parseShard("") = %d, %d, %v, want 0, 0, nil`, k, n, err)
	}
	if k, n, err := parseShard("2/5"); k != 2 || n != 5 || err != nil {
		t.Errorf(`parseShard("2/5") = %d, %d, %v, want 2, 5, nil`, k, n, err)
	}
	if k, n, err := parseShard("0/1"); k != 0 || n != 1 || err != nil {
		t.Errorf(`parseShard("0/1") = %d, %d, %v, want 0, 1, nil`, k, n, err)
	}
	for _, bad := range []string{"3/3", "-1/2", "a/b", "1", "1/", "/3", "0/0", "1/2/3", "0.5/2"} {
		if _, _, err := parseShard(bad); err == nil {
			t.Errorf("parseShard(%q) accepted a malformed spec", bad)
		} else if !strings.Contains(err.Error(), bad) {
			t.Errorf("parseShard(%q) error %q does not quote the spec", bad, err)
		}
	}
}

// TestShardFlagValidation: -shard without -checkpoint and -shard on
// non-yield figures are loud errors, and an out-of-range spec reaching
// the config layer is rejected there too.
func TestShardFlagValidation(t *testing.T) {
	base := figures.Defaults()

	cfg := base
	cfg.ShardK, cfg.ShardN = 0, 3
	err := runErr(t, "yield", cfg)
	if err == nil || !strings.Contains(err.Error(), "needs -checkpoint") {
		t.Errorf("-shard without -checkpoint: err = %v, want a -checkpoint complaint", err)
	}

	for _, fig := range []string{"5a", "all"} {
		cfg = base
		cfg.ShardK, cfg.ShardN = 1, 3
		cfg.Checkpoint = "snap.json"
		err = runErr(t, fig, cfg)
		if err == nil || !strings.Contains(err.Error(), "-fig yield only") {
			t.Errorf("-shard with -fig %s: err = %v, want a yield-only complaint", fig, err)
		}
	}

	// A spec that bypassed parseShard (e.g. a future caller building
	// Config directly) still fails Config.Validate.
	cfg = base
	cfg.ShardK, cfg.ShardN = 3, 3
	cfg.Checkpoint = "snap.json"
	if err = runErr(t, "yield", cfg); err == nil || !strings.Contains(err.Error(), "-shard") {
		t.Errorf("out-of-range shard config: err = %v, want a -shard complaint", err)
	}
}

// TestUnknownFigureListsSortedKeys pins the satellite contract that
// every unknown-name error enumerates the valid names in sorted order.
func TestUnknownFigureListsSortedKeys(t *testing.T) {
	err := runErr(t, "nope", figures.Defaults())
	if err == nil {
		t.Fatal("unknown figure did not error")
	}
	keys := figures.SortedKeys()
	if !sort.StringsAreSorted(keys) {
		t.Fatalf("figures.SortedKeys() is not sorted: %v", keys)
	}
	want := strings.Join(keys, ", ")
	if !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not list sorted keys %q", err, want)
	}
}

// TestShardMergeResumeByteIdentical is the CI shard-merge job
// in-process: three -shard legs of the yield figure, an oscmerge-style
// merge of their snapshots, and a -resume render of the merged
// checkpoint must produce output byte-identical to an unsharded run —
// with zero dies recomputed (the resumed line says N/N).
func TestShardMergeResumeByteIdentical(t *testing.T) {
	dir := t.TempDir()
	cfg := figures.Defaults()
	cfg.Samples = 3 // 4 sigmas x 3 dies: small but sharded unevenly over 3

	var ref bytes.Buffer
	if err := run(context.Background(), &ref, "yield", cfg, 0, false); err != nil {
		t.Fatal(err)
	}

	ckpt := filepath.Join(dir, "yield.json")
	shardPaths := make([]string, 3)
	for k := range shardPaths {
		leg := cfg
		leg.Checkpoint = ckpt
		leg.ShardK, leg.ShardN = k, 3
		var out bytes.Buffer
		if err := run(context.Background(), &out, "yield", leg, 0, false); err != nil {
			t.Fatalf("shard %d/3 leg: %v", k, err)
		}
		if !strings.Contains(out.String(), fmt.Sprintf("shard %d/3:", k)) {
			t.Errorf("shard leg %d did not report its progress: %q", k, out.String())
		}
		shardPaths[k] = dse.ShardCheckpointPath(ckpt, k, 3)
	}

	if _, err := dse.MergeCheckpoints(ckpt, shardPaths); err != nil {
		t.Fatal(err)
	}

	res := cfg
	res.Checkpoint = ckpt
	res.Resume = true
	var merged bytes.Buffer
	if err := run(context.Background(), &merged, "yield", res, 0, false); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(merged.String(), "resumed ") {
		t.Fatalf("merged render did not resume: %q", merged.String())
	}
	// Strip the resumed line (the only extra output of a resume), then
	// the rest must be byte-identical to the unsharded render.
	var clean strings.Builder
	for _, line := range strings.SplitAfter(merged.String(), "\n") {
		if strings.HasPrefix(line, "resumed ") {
			if !strings.Contains(line, "resumed 12/12 dies") {
				t.Errorf("merged resume recomputed dies: %q", line)
			}
			continue
		}
		clean.WriteString(line)
	}
	if clean.String() != ref.String() {
		t.Errorf("merged render diverges from unsharded run\n got: %q\nwant: %q", clean.String(), ref.String())
	}
}

// TestShardZeroOfOneRendersFullTable: the one shard of one owns every
// die, so its leg completes the study and renders the unsharded table
// byte for byte, from a snapshot that restores every die.
func TestShardZeroOfOneRendersFullTable(t *testing.T) {
	cfg := figures.Defaults()
	cfg.Samples = 3
	var ref bytes.Buffer
	if err := run(context.Background(), &ref, "yield", cfg, 0, false); err != nil {
		t.Fatal(err)
	}

	leg := cfg
	leg.Checkpoint = filepath.Join(t.TempDir(), "yield.json")
	leg.ShardK, leg.ShardN = 0, 1
	var out bytes.Buffer
	if err := run(context.Background(), &out, "yield", leg, 0, false); err != nil {
		t.Fatal(err)
	}
	if out.String() != ref.String() {
		t.Errorf("-shard 0/1 output diverges from the unsharded run\n got: %q\nwant: %q", out.String(), ref.String())
	}
	s := figures.YieldStudySpec(cfg.Samples)
	cp := dse.NewCheckpointer[core.DieOutcome](dse.ShardCheckpointPath(leg.Checkpoint, 0, 1), 0, s.Key())
	if restored, err := cp.Load(); err != nil || restored != s.N() {
		t.Errorf("shard 0/1 snapshot: restored=%d err=%v, want %d", restored, err, s.N())
	}
}

func TestInvalidConfigRejected(t *testing.T) {
	cfg := figures.Defaults()
	cfg.GridN = 1
	if err := runErr(t, "6a", cfg); err == nil {
		t.Error("grid 1 accepted")
	}
	if err := run(context.Background(), io.Discard, "5a", figures.Defaults(), -1, false); err == nil {
		t.Error("workers -1 accepted")
	}
}
