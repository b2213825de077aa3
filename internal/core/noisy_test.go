package core

import (
	"testing"

	"repro/internal/stochastic"
)

// zeroFill is the degenerate noise filler: a noiseless channel.
func zeroFill(dst []float64) {
	for i := range dst {
		dst[i] = 0
	}
}

// splitmixFill returns a deterministic filler drawing uniform noise
// from a seeded SplitMix64 — enough to pin the packed and serial
// implementations against each other without importing a
// distribution.
func splitmixFill(seed uint64, sigma float64) func([]float64) {
	src := stochastic.NewSplitMix64(seed)
	return func(dst []float64) {
		for i := range dst {
			dst[i] = (src.Next() - 0.5) * sigma
		}
	}
}

// TestUnitEvaluateNoisyZeroNoiseMatchesEvaluate: with an all-zero
// filler the noisy path must reproduce the noiseless oracle bit for
// bit — same generators, same decisions.
func TestUnitEvaluateNoisyZeroNoiseMatchesEvaluate(t *testing.T) {
	for _, length := range []int{1, 63, 64, 65, 500} {
		for _, x := range []float64{0, 0.3, 0.8, 1} {
			serial := paperUnit(t, 7)
			noisy := paperUnit(t, 7)
			_, bs := serial.Evaluate(x, length)
			bn, err := noisy.EvaluateNoisy(x, length, zeroFill)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < bs.Len(); i++ {
				if bs.Get(i) != bn.Get(i) {
					t.Fatalf("len %d x=%g: bit %d %d vs %d", length, x, i, bs.Get(i), bn.Get(i))
				}
			}
		}
	}
}

// TestUnitEvaluateNoisySeededFallbackMatchesPacked pins the packed
// noisy path to the cache-free serial walk (walkSeeded) on fresh
// generators and an equal noise source, so the two implementations
// cannot drift.
func TestUnitEvaluateNoisySeededFallbackMatchesPacked(t *testing.T) {
	u := paperUnit(t, 17)
	// Uniform noise up to ±ThresholdMW: wide enough to push levels of
	// both bands across the threshold, so the noise add is exercised.
	sigma := 2 * u.ThresholdMW()
	for i, x := range []float64{0, 0.4, 1} {
		seed := stochastic.DeriveSeed(99, i)
		packed, err := u.EvaluateNoisySeeded(seed, x, 257, splitmixFill(seed+1, sigma))
		if err != nil {
			t.Fatal(err)
		}

		data, coef := seededSNGs(u.Circuit.P.Order, seed)
		serial := walkSeeded(u, data, coef, x, 257, splitmixFill(seed+1, sigma))
		if packed != serial {
			t.Errorf("x=%g: packed %g vs serial walk %g", x, packed, serial)
		}
	}
}

// TestUnitEvaluateNoisyFallbackMatchesPacked does the same for the
// generator-advancing EvaluateNoisy against a Step loop fed the same
// noise blocks.
func TestUnitEvaluateNoisyFallbackMatchesPacked(t *testing.T) {
	packedU := paperUnit(t, 23)
	serialU := paperUnit(t, 23)
	sigma := 2 * packedU.ThresholdMW() // flips decisions, as above
	const length = 193
	bp, err := packedU.EvaluateNoisy(0.6, length, splitmixFill(5, sigma))
	if err != nil {
		t.Fatal(err)
	}
	fill := splitmixFill(5, sigma)
	var noise [noiseBlock]float64
	for t0 := 0; t0 < length; t0 += noiseBlock {
		nb := min(noiseBlock, length-t0)
		fill(noise[:nb])
		for k := 0; k < nb; k++ {
			if got, want := bp.Get(t0+k), serialU.Step(0.6, noise[k]).Bit; got != want {
				t.Fatalf("bit %d: %d vs %d", t0+k, got, want)
			}
		}
	}
}

func TestUnitEvaluateNoisyValidation(t *testing.T) {
	u := paperUnit(t, 3)
	if _, err := u.EvaluateNoisy(0.5, 0, zeroFill); err == nil {
		t.Error("length 0 accepted")
	}
	if _, err := u.EvaluateNoisy(0.5, -4, zeroFill); err == nil {
		t.Error("negative length accepted")
	}
	if _, err := u.EvaluateNoisy(0.5, 16, nil); err == nil {
		t.Error("nil filler accepted")
	}
	if _, err := u.EvaluateNoisySeeded(1, 0.5, 0, zeroFill); err == nil {
		t.Error("seeded length 0 accepted")
	}
	if _, err := u.EvaluateNoisySeeded(1, 0.5, 16, nil); err == nil {
		t.Error("seeded nil filler accepted")
	}
}
