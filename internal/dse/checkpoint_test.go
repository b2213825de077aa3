package dse

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/stochastic"
)

// numericKey is a small sweep identity used by the pure-checkpointer
// tests: point i is a float derived from (seed, i) alone, mimicking
// the DeriveSeed discipline of the real sweeps.
func numericKey(n int) CheckpointKey {
	return CheckpointKey{Figure: "ck-test", Config: "f(i)=derive(seed,i)", Seed: 1234, N: n}
}

func numericPoint(i int) float64 {
	return float64(stochastic.DeriveSeed(1234, i)%1000) / 7.0
}

// TestCheckpointerCompletes: a full run returns every point in index
// order and leaves a resumable snapshot behind.
func TestCheckpointerCompletes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.json")
	cp := NewCheckpointer[float64](path, 5, numericKey(37))
	got, err := cp.Run(context.Background(), engine.Serial, numericPoint)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 37 {
		t.Fatalf("got %d results", len(got))
	}
	for i, v := range got {
		if v != numericPoint(i) {
			t.Fatalf("point %d = %v, want %v", i, v, numericPoint(i))
		}
	}
	// The final snapshot restores completely.
	cp2 := NewCheckpointer[float64](path, 5, numericKey(37))
	restored, err := cp2.Load()
	if err != nil || restored != 37 {
		t.Fatalf("Load after completion: restored=%d err=%v", restored, err)
	}
}

// TestCheckpointerInterruptResumeBitIdentical is the acceptance
// criterion in miniature: a sweep interrupted by cancellation, resumed
// from its checkpoint by a fresh checkpointer, reassembles results
// bit-identical to an uninterrupted run.
func TestCheckpointerInterruptResumeBitIdentical(t *testing.T) {
	const n = 80
	// Uninterrupted reference.
	ref, err := NewCheckpointer[float64](filepath.Join(t.TempDir(), "ref.json"), 0, numericKey(n)).
		Run(context.Background(), engine.Serial, numericPoint)
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted run: cancel after 25 completed points; Every 10 so a
	// durable snapshot exists before the cancellation. The serial
	// engine's ctx path polls at every item boundary, so the stop is
	// deterministic — exactly 25 points complete.
	path := filepath.Join(t.TempDir(), "ck.json")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var completed atomic.Int32
	cp := NewCheckpointer[float64](path, 10, numericKey(n))
	_, err = cp.Run(ctx, engine.Serial, func(i int) float64 {
		if completed.Add(1) == 25 {
			cancel()
		}
		return numericPoint(i)
	})
	var p *engine.Partial
	if !errors.As(err, &p) {
		t.Fatalf("interrupted run err = %v (%T), want *engine.Partial", err, err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Partial does not carry context.Canceled: %v", err)
	}
	if p.Completed == 0 || p.Completed >= n {
		t.Fatalf("Completed = %d, want a strict partial of %d", p.Completed, n)
	}

	// Resume with a fresh checkpointer (a new process, in effect).
	cp2 := NewCheckpointer[float64](path, 10, numericKey(n))
	restored, err := cp2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if restored != p.Completed {
		t.Fatalf("restored %d points, checkpoint said %d completed", restored, p.Completed)
	}
	var rerun atomic.Int32
	got, err := cp2.Run(context.Background(), engine.WordParallel, func(i int) float64 {
		rerun.Add(1)
		return numericPoint(i)
	})
	if err != nil {
		t.Fatal(err)
	}
	if int(rerun.Load()) != n-restored {
		t.Errorf("resume re-ran %d points, want only the missing %d", rerun.Load(), n-restored)
	}
	if !reflect.DeepEqual(got, ref) {
		t.Errorf("resumed results diverge from the uninterrupted run")
	}
}

// TestCheckpointerStaleFailsClosed: a checkpoint written under a
// different key — other figure, config, seed or n — refuses to load.
func TestCheckpointerStaleFailsClosed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.json")
	if _, err := NewCheckpointer[float64](path, 0, numericKey(10)).
		Run(context.Background(), engine.Serial, numericPoint); err != nil {
		t.Fatal(err)
	}
	for name, key := range map[string]CheckpointKey{
		"figure": {Figure: "other", Config: "f(i)=derive(seed,i)", Seed: 1234, N: 10},
		"config": {Figure: "ck-test", Config: "different", Seed: 1234, N: 10},
		"seed":   {Figure: "ck-test", Config: "f(i)=derive(seed,i)", Seed: 99, N: 10},
		"n":      {Figure: "ck-test", Config: "f(i)=derive(seed,i)", Seed: 1234, N: 11},
	} {
		if _, err := NewCheckpointer[float64](path, 0, key).Load(); !errors.Is(err, ErrStaleCheckpoint) {
			t.Errorf("mismatched %s: Load err = %v, want ErrStaleCheckpoint", name, err)
		}
	}
}

// TestCheckpointerCorruptAndMissing: corrupt JSON errors; a missing
// file is a clean zero-restore start.
func TestCheckpointerCorruptAndMissing(t *testing.T) {
	dir := t.TempDir()
	missing := NewCheckpointer[float64](filepath.Join(dir, "nope.json"), 0, numericKey(5))
	if restored, err := missing.Load(); err != nil || restored != 0 {
		t.Fatalf("missing file: restored=%d err=%v", restored, err)
	}
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewCheckpointer[float64](bad, 0, numericKey(5)).Load(); err == nil {
		t.Error("corrupt checkpoint loaded without error")
	}
}

// TestYieldStudyMatchesAnalyzeYield: a study row equals a standalone
// core.AnalyzeYieldCtx run exactly — the property that makes the
// checkpointed yield figure trustworthy.
func TestYieldStudyMatchesAnalyzeYield(t *testing.T) {
	s := yieldStudyFixture()
	points, err := s.RunCtx(context.Background(), engine.Serial)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != len(s.SigmasNM) {
		t.Fatalf("%d points for %d sigmas", len(points), len(s.SigmasNM))
	}
	for r, pt := range points {
		want, err := core.AnalyzeYieldCtx(context.Background(), engine.Serial, s.Params, s.Variation(s.SigmasNM[r]))
		if err != nil {
			t.Fatal(err)
		}
		if pt.Result != want {
			t.Errorf("sigma %g: study %+v, standalone %+v", pt.SigmaNM, pt.Result, want)
		}
	}
}

// TestYieldStudyCheckpointRoundTrip: the checkpointed path (through
// the JSON round-trip) reproduces the direct path exactly, and a
// wrong-key checkpointer is refused up front.
func TestYieldStudyCheckpointRoundTrip(t *testing.T) {
	s := yieldStudyFixture()
	direct, err := s.RunCtx(context.Background(), engine.Serial)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "yield.json")
	cp := NewCheckpointer[core.DieOutcome](path, 3, s.Key())
	viaCp, err := s.RunCheckpointed(context.Background(), engine.WordParallel, cp)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(viaCp, direct) {
		t.Errorf("checkpointed study diverges:\n got %+v\nwant %+v", viaCp, direct)
	}
	// Resume from the completed snapshot re-runs nothing and still
	// folds identically.
	cp2 := NewCheckpointer[core.DieOutcome](path, 3, s.Key())
	if _, err := cp2.Load(); err != nil {
		t.Fatal(err)
	}
	resumed, err := s.RunCheckpointed(context.Background(), engine.Serial, cp2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resumed, direct) {
		t.Errorf("resumed-from-complete study diverges")
	}
	wrong := s
	wrong.Seed++
	if _, err := wrong.RunCheckpointed(context.Background(), engine.Serial, cp2); !errors.Is(err, ErrStaleCheckpoint) {
		t.Errorf("wrong-key checkpointer accepted: %v", err)
	}
}

// TestCheckpointersSaveSamePathConcurrently: two identical in-flight
// studies snapshot one path at once. Each save writes its own temp
// file, so neither rename finds its file taken by the other's; every
// save succeeds, the snapshot loads whole, and no temp file is left.
func TestCheckpointersSaveSamePathConcurrently(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ck.json")
	const n, saves = 64, 200
	var cps [2]*Checkpointer[float64]
	for k := range cps {
		cps[k] = NewCheckpointer[float64](path, 1, numericKey(n))
		if _, err := cps[k].Run(context.Background(), engine.Serial, numericPoint); err != nil {
			t.Fatal(err)
		}
	}
	errs := make(chan error, 2*saves)
	var wg sync.WaitGroup
	for _, cp := range cps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < saves; i++ {
				errs <- cp.Save()
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatalf("concurrent save: %v", err)
		}
	}
	if restored, err := NewCheckpointer[float64](path, 0, numericKey(n)).Load(); err != nil || restored != n {
		t.Fatalf("Load after concurrent saves: restored=%d err=%v", restored, err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Errorf("directory holds %v, want only ck.json", names)
	}
}
