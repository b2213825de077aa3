package transient

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/stochastic"
)

// hotSim builds a simulator on a deliberately noisy link (probe sized
// for BER 1e-2) so noise actually flips decision bits — equivalence
// tests on a quiet link would never exercise the noisy compare.
func hotSim(t testing.TB, seed uint64) *Simulator {
	t.Helper()
	p := core.PaperParams()
	p.ProbePowerMW = core.MustCircuit(p).MinProbePowerMW(1e-2)
	c, err := core.NewCircuit(p)
	if err != nil {
		t.Fatal(err)
	}
	u, err := core.NewUnit(c, stochastic.NewBernstein([]float64{0.25, 0.625, 0.75}), seed)
	if err != nil {
		t.Fatal(err)
	}
	return NewSimulator(u, seed+1)
}

// TestSimulatorEvaluateWordsMatchesSerial is the tentpole
// equivalence: the word-parallel noisy datapath must emit the same
// bitstream as the bit-serial Step loop — same SNG streams, same
// noise stream, same decisions — across seeds and awkward lengths.
func TestSimulatorEvaluateWordsMatchesSerial(t *testing.T) {
	for _, seed := range []uint64{3, 1234} {
		serial := hotSim(t, seed)
		packed := hotSim(t, seed)
		for _, length := range []int{1, 63, 64, 65, 500} {
			for _, x := range []float64{0, 0.3, 0.8, 1} {
				vs, bs, err := serial.Evaluate(x, length)
				if err != nil {
					t.Fatal(err)
				}
				vp, bp, err := packed.EvaluateWords(x, length)
				if err != nil {
					t.Fatal(err)
				}
				if vs != vp {
					t.Fatalf("seed %d len %d x=%g: value %g vs %g", seed, length, x, vs, vp)
				}
				for i := 0; i < bs.Len(); i++ {
					if bs.Get(i) != bp.Get(i) {
						t.Fatalf("seed %d len %d x=%g: bit %d %d vs %d",
							seed, length, x, i, bs.Get(i), bp.Get(i))
					}
				}
			}
		}
	}
}

// TestSimulatorEvaluateBatchMatchesSerialDerivation: batch trial i
// must equal a bit-serial walk of a fresh unit seeded from
// trialSeeds(seed, i), fed by that trial's own Gaussian stream — the
// documented contract that makes batch results reproducible.
func TestSimulatorEvaluateBatchMatchesSerialDerivation(t *testing.T) {
	s := hotSim(t, 55)
	xs := []float64{0, 0.2, 0.5, 0.9, 1}
	const length = 300
	got, err := s.EvaluateBatch(context.Background(), engine.WordParallel, xs, length)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(xs) {
		t.Fatalf("batch length %d", len(got))
	}
	for i, x := range xs {
		unitSeed, noiseSeed := trialSeeds(s.seed, i)
		u, err := core.NewUnit(s.Unit.Circuit, s.Unit.Poly, unitSeed)
		if err != nil {
			t.Fatal(err)
		}
		g := NewGaussian(stochastic.NewSplitMix64(noiseSeed))
		ones := 0
		for tt := 0; tt < length; tt++ {
			ones += u.Step(x, g.NextScaled(s.SigmaMW)).Bit
		}
		want := float64(ones) / float64(length)
		if got[i] != want {
			t.Errorf("x[%d]=%g: batch %g vs serial derivation %g", i, x, got[i], want)
		}
	}
}

// TestSimulatorEvaluateBatchDeterministic: fixed seed, identical
// results across repeated runs, across worker counts (GOMAXPROCS
// sizes WordParallel's pool, so pinning it to 1 forces the pool's
// inline path), and across batch-prefix slicing (a shorter xs gets a
// smaller pool but must reproduce the same leading trials, since
// trial randomness derives from the index alone).
func TestSimulatorEvaluateBatchDeterministic(t *testing.T) {
	xs := make([]float64, 48)
	for i := range xs {
		xs[i] = float64(i) / 47
	}
	first, err := hotSim(t, 99).EvaluateBatch(context.Background(), engine.WordParallel, xs, 256)
	if err != nil {
		t.Fatal(err)
	}
	again, err := hotSim(t, 99).EvaluateBatch(context.Background(), engine.WordParallel, xs, 256)
	if err != nil {
		t.Fatal(err)
	}
	for i := range first {
		if first[i] != again[i] {
			t.Fatalf("repeat run differs at %d: %g vs %g", i, first[i], again[i])
		}
	}
	for _, prefix := range []int{1, 7} {
		part, err := hotSim(t, 99).EvaluateBatch(context.Background(), engine.WordParallel, xs[:prefix], 256)
		if err != nil {
			t.Fatal(err)
		}
		for i := range part {
			if first[i] != part[i] {
				t.Fatalf("prefix %d differs at %d: %g vs %g", prefix, i, first[i], part[i])
			}
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	single, err := hotSim(t, 99).EvaluateBatch(context.Background(), engine.WordParallel, xs, 256)
	if err != nil {
		t.Fatal(err)
	}
	for i := range first {
		if first[i] != single[i] {
			t.Fatalf("GOMAXPROCS=1 run differs at %d: %g vs %g", i, first[i], single[i])
		}
	}
}

// TestSimulatorEvaluateBatchRace exercises concurrent EvaluateBatch
// calls on one shared simulator (shared power table, per-trial
// sources); `go test -race` turns it into a data-race check.
func TestSimulatorEvaluateBatchRace(t *testing.T) {
	s := hotSim(t, 8)
	xs := make([]float64, 32)
	for i := range xs {
		xs[i] = float64(i) / 31
	}
	done := make(chan []float64, 4)
	for g := 0; g < 4; g++ {
		go func() {
			vals, err := s.EvaluateBatch(context.Background(), engine.WordParallel, xs, 256)
			if err != nil {
				t.Error(err)
			}
			done <- vals
		}()
	}
	first := <-done
	for g := 1; g < 4; g++ {
		other := <-done
		for i := range first {
			if first[i] != other[i] {
				t.Fatalf("concurrent batches disagree at %d: %g vs %g", i, first[i], other[i])
			}
		}
	}
}

// TestSimulatorEvaluateBatchConverges: the Monte-Carlo mean over
// many independent noisy trials lands on the analytic polynomial
// value on a quiet link.
func TestSimulatorEvaluateBatchConverges(t *testing.T) {
	s := newTestSim(t, 0, 71) // paper's 1 mW probes: effectively noiseless
	const trials = 64
	for _, x := range []float64{0.25, 0.5, 0.75} {
		xs := make([]float64, trials)
		for i := range xs {
			xs[i] = x
		}
		vals, err := s.EvaluateBatch(context.Background(), engine.WordParallel, xs, 4096)
		if err != nil {
			t.Fatal(err)
		}
		mean := 0.0
		for _, v := range vals {
			mean += v
		}
		mean /= trials
		want := s.Unit.Poly.Eval(x)
		if d := mean - want; d > 0.01 || d < -0.01 {
			t.Errorf("x=%g: batch mean %g vs analytic %g", x, mean, want)
		}
	}
}

// --- Benchmarks: the acceptance criterion is >= 3x single-core at
// 4096-bit streams (EvaluateWords vs Evaluate); EvaluateBatch adds
// the multi-core fan-out on top.

func BenchmarkSimulatorEvaluateSerial(b *testing.B) {
	s := hotSim(b, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.Evaluate(0.5, 4096); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimulatorEvaluateWords(b *testing.B) {
	s := hotSim(b, 5)
	if _, _, err := s.EvaluateWords(0.5, 64); err != nil { // build tables
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.EvaluateWords(0.5, 4096); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimulatorEvaluateBatch(b *testing.B) {
	s := hotSim(b, 5)
	xs := make([]float64, 256)
	for i := range xs {
		xs[i] = float64(i) / 255
	}
	if _, _, err := s.EvaluateWords(0.5, 64); err != nil { // build tables
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.EvaluateBatch(context.Background(), engine.WordParallel, xs, 4096); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimulatorMeasureWorstCaseBER(b *testing.B) {
	s := hotSim(b, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.MeasureWorstCaseBER(100_000); err != nil {
			b.Fatal(err)
		}
	}
}
