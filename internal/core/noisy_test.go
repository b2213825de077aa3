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

// TestUnitEvaluateNoisySeededFallbackMatchesPacked pins the
// cache-free serial fallback (used beyond maxTableOrder) to the
// packed noisy path on a tabulatable order, so the two
// implementations cannot drift.
func TestUnitEvaluateNoisySeededFallbackMatchesPacked(t *testing.T) {
	u := paperUnit(t, 17)
	sigma := u.ThresholdMW() // noise comparable to the decision level
	for i, x := range []float64{0, 0.4, 1} {
		seed := stochastic.DeriveSeed(99, i)
		packed, err := u.EvaluateNoisySeeded(seed, x, 257, splitmixFill(seed+1, sigma))
		if err != nil {
			t.Fatal(err)
		}
		if u.powerTable() == nil {
			t.Fatal("order 2 should tabulate")
		}

		// Re-run through the serial fallback by hiding the table.
		fresh := paperUnit(t, 17)
		fresh.Circuit.powOnce.Do(func() {}) // leave powers nil
		serial, err := fresh.EvaluateNoisySeeded(seed, x, 257, splitmixFill(seed+1, sigma))
		if err != nil {
			t.Fatal(err)
		}
		if packed != serial {
			t.Errorf("x=%g: packed %g vs serial fallback %g", x, packed, serial)
		}
	}
}

// TestUnitEvaluateNoisyFallbackMatchesPacked does the same for the
// generator-advancing EvaluateNoisy.
func TestUnitEvaluateNoisyFallbackMatchesPacked(t *testing.T) {
	packedU := paperUnit(t, 23)
	serialU := paperUnit(t, 23)
	serialU.Circuit.powOnce.Do(func() {}) // hide the table
	sigma := packedU.ThresholdMW()
	bp, err := packedU.EvaluateNoisy(0.6, 193, splitmixFill(5, sigma))
	if err != nil {
		t.Fatal(err)
	}
	bsr, err := serialU.EvaluateNoisy(0.6, 193, splitmixFill(5, sigma))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < bp.Len(); i++ {
		if bp.Get(i) != bsr.Get(i) {
			t.Fatalf("bit %d: %d vs %d", i, bp.Get(i), bsr.Get(i))
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
