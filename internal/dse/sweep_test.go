package dse

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/engine"
	"repro/internal/stochastic"
)

func TestSweepOrdersResults(t *testing.T) {
	got, err := SweepCtx(context.Background(), engine.WordParallel, 100, func(i int) (int, error) { return i * i, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("index %d: got %d", i, v)
		}
	}
	if got, err := SweepCtx(context.Background(), engine.WordParallel, 0, func(int) (int, error) { return 1, nil }); err != nil || len(got) != 0 {
		t.Errorf("empty sweep = %v, %v", got, err)
	}
}

func TestSweepErrReturnsLowestIndexError(t *testing.T) {
	_, err := SweepCtx(context.Background(), engine.WordParallel, 10, func(i int) (int, error) {
		if i%3 == 2 { // fails at 2, 5, 8
			return 0, fmt.Errorf("point %d", i)
		}
		return i, nil
	})
	if err == nil || err.Error() != "point 2" {
		t.Fatalf("err = %v, want the lowest failing index", err)
	}
	got, err := SweepCtx(context.Background(), engine.WordParallel, 4, func(i int) (int, error) { return i + 1, nil })
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []int{1, 2, 3, 4}) {
		t.Fatalf("got %v", got)
	}
}

// TestSweepErrInterruptedUnmarksFailedPoints: a canceled sweep reports
// the *engine.Partial, and a point that returned an error is never
// marked done (its slot holds no valid result).
func TestSweepErrInterruptedUnmarksFailedPoints(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err := SweepCtx(ctx, engine.Serial, 6, func(i int) (int, error) {
		if i == 2 {
			cancel()
			return 0, fmt.Errorf("point %d", i)
		}
		return i, nil
	})
	var p *engine.Partial
	if !errors.As(err, &p) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want a canceled *engine.Partial", err)
	}
	if want := []bool{true, true, false, false, false, false}; !reflect.DeepEqual(p.Done, want) || p.Completed != 2 {
		t.Errorf("Done = %v (completed %d), want %v (2)", p.Done, p.Completed, want)
	}
}

// seedPoint returns point i's seed derived from base the way the
// Monte-Carlo studies derive theirs.
func seedPoint(base uint64) func(i int) (uint64, error) {
	return func(i int) (uint64, error) { return stochastic.DeriveSeed(base, i), nil }
}

func TestSweepSeededDerivesPerPointSeeds(t *testing.T) {
	ctx := context.Background()
	a, errA := SweepCtx(ctx, engine.WordParallel, 8, seedPoint(42))
	b, errB := SweepCtx(ctx, engine.WordParallel, 8, seedPoint(42))
	if errA != nil || errB != nil || !reflect.DeepEqual(a, b) {
		t.Errorf("seeded sweep not reproducible: %v %v", errA, errB)
	}
	seen := map[uint64]bool{}
	for _, s := range a {
		if seen[s] {
			t.Fatalf("duplicate derived seed %d", s)
		}
		seen[s] = true
	}
	c, err := SweepCtx(ctx, engine.WordParallel, 8, seedPoint(43))
	if err != nil || reflect.DeepEqual(a, c) {
		t.Errorf("different base seeds derived identical point seeds (%v)", err)
	}
}

func TestGridRowMajorOrder(t *testing.T) {
	got, err := GridCtx(context.Background(), engine.WordParallel, 3, 4, func(r, c int) [2]int { return [2]int{r, c} })
	if err != nil || len(got) != 12 {
		t.Fatalf("%d cells (%v)", len(got), err)
	}
	for i, cell := range got {
		if cell != [2]int{i / 4, i % 4} {
			t.Fatalf("cell %d = %v", i, cell)
		}
	}
	if got, err := GridCtx(context.Background(), engine.WordParallel, 0, 5, func(r, c int) int { return 0 }); err != nil || len(got) != 0 {
		t.Errorf("empty grid = %v, %v", got, err)
	}
}

// withGOMAXPROCS runs f at the given GOMAXPROCS, restoring the old
// value afterwards.
func withGOMAXPROCS(n int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	f()
}

// assertDeterministic evaluates gen at GOMAXPROCS 1 and 4 and requires
// deeply equal results — the contract every rewired figure sweep
// carries.
func assertDeterministic[T any](t *testing.T, name string, gen func() (T, error)) {
	t.Helper()
	var single, multi T
	var errSingle, errMulti error
	withGOMAXPROCS(1, func() { single, errSingle = gen() })
	withGOMAXPROCS(4, func() { multi, errMulti = gen() })
	if (errSingle == nil) != (errMulti == nil) {
		t.Fatalf("%s: errors differ: %v vs %v", name, errSingle, errMulti)
	}
	if errSingle != nil {
		t.Fatalf("%s: %v", name, errSingle)
	}
	if !reflect.DeepEqual(single, multi) {
		t.Errorf("%s: GOMAXPROCS=1 and 4 disagree\n  1: %+v\n  4: %+v", name, single, multi)
	}
}

func TestFig6ADeterministicAcrossGOMAXPROCS(t *testing.T) {
	assertDeterministic(t, "Fig6A", func() ([]Fig6APoint, error) {
		return Fig6A(context.Background(), engine.WordParallel, 4, 3)
	})
}

func TestFig6BDeterministicAcrossGOMAXPROCS(t *testing.T) {
	assertDeterministic(t, "Fig6B", func() ([]Fig6BPoint, error) {
		return Fig6B(context.Background(), engine.WordParallel, []float64{1e-2, 1e-4, 1e-6})
	})
}

func TestFig6CDeterministicAcrossGOMAXPROCS(t *testing.T) {
	assertDeterministic(t, "Fig6C", func() ([]Fig6CPoint, error) {
		pts, err := Fig6C(context.Background(), engine.WordParallel)
		// Errors carry unstable fmt pointers; compare the data fields.
		for i := range pts {
			pts[i].Err = nil
		}
		return pts, err
	})
}

func TestFig7ADeterministicAcrossGOMAXPROCS(t *testing.T) {
	assertDeterministic(t, "Fig7A", func() ([]Fig7ASeries, error) {
		return Fig7A(context.Background(), engine.WordParallel, []int{2, 4}, 7)
	})
}

func TestFig7BDeterministicAcrossGOMAXPROCS(t *testing.T) {
	assertDeterministic(t, "Fig7B", func() ([]Fig7BRow, error) {
		return Fig7B(context.Background(), engine.WordParallel, []int{2, 4})
	})
}

func TestRingSensitivityDeterministicAcrossGOMAXPROCS(t *testing.T) {
	assertDeterministic(t, "RingSensitivity", func() ([]RingSensitivityRow, error) {
		return RingSensitivity(context.Background(), engine.WordParallel, []float64{0.75, 1.0, 1.25})
	})
}

func TestNoiseStudyDeterministicAcrossGOMAXPROCS(t *testing.T) {
	spec := NoiseStudySpec{
		X:       0.5,
		Lengths: []int{64, 128},
		ProbeMW: []float64{1, 0.5},
		Trials:  4,
		BERBits: 2_000,
		Seed:    21,
	}
	assertDeterministic(t, "NoiseStudy", func() ([]NoiseRow, error) {
		return NoiseStudy(context.Background(), engine.WordParallel, spec)
	})
}

func TestEdgeStudyDeterministicAcrossGOMAXPROCS(t *testing.T) {
	assertDeterministic(t, "EdgeStudy", func() ([]EdgeStudyRow, error) {
		return EdgeStudy(context.Background(), engine.WordParallel, []int{64, 128}, 7)
	})
}

func TestStreamLengthSweepDeterministicAcrossGOMAXPROCS(t *testing.T) {
	assertDeterministic(t, "StreamLengthSweep", func() ([]StreamSweepRow, error) {
		return StreamLengthSweep(context.Background(), engine.WordParallel, []int{64, 128}, 5, 9)
	})
}
