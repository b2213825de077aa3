package core

import (
	"math"
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

// TestUnitEvaluateNoisySeededFallbackMatchesPacked pins the screened
// Gaussian path to the cache-free serial walk (walkSeeded) fed
// FillScaled blocks from an equal Gaussian: same decisions, and the
// Gaussian left in the same state. It covers the paper design sized
// for BER 1e-1 and 1e-4, the non-mux order-2 design at 0.1 nm and the
// order-6 gamma design; σ = 0 (no screen), the detector's own σ, and a
// σ twice the widest level-to-threshold distance, at which most
// Box–Muller pairs miss the screens; and lengths around word edges.
func TestUnitEvaluateNoisySeededFallbackMatchesPacked(t *testing.T) {
	paperAt := func(ber float64) *Unit {
		p := PaperParams()
		p.ProbePowerMW = MustCircuit(p).MinProbePowerMW(ber)
		u, err := NewUnit(MustCircuit(p), stochastic.NewBernstein([]float64{0.25, 0.625, 0.75}), 31)
		if err != nil {
			t.Fatal(err)
		}
		return u
	}
	for _, tc := range []struct {
		name string
		u    *Unit
	}{
		{"paper at BER 1e-1", paperAt(1e-1)},
		{"paper at BER 1e-4", paperAt(1e-4)},
		{"non-mux order 2 at 0.1 nm", designUnit(t, 2, 0.1, 32)},
		{"gamma order 6", gammaUnit(t, 33)},
	} {
		u := tc.u
		det := u.Circuit.P.Detector
		wide := 0.0
		for _, level := range u.Circuit.powerCells() {
			wide = max(wide, 2*math.Abs(level-u.ThresholdMW()))
		}
		for _, sigma := range []float64{0, det.NoiseCurrentA / det.ResponsivityAPerW * 1e3, wide} {
			screens := u.Screens(sigma)
			for _, length := range []int{1, 63, 64, 65, 257} {
				for i, x := range []float64{0, 0.4, 1} {
					seed := stochastic.DeriveSeed(99, i)
					g := stochastic.NewGaussian(stochastic.NewSplitMix64(seed + 1))
					packed, err := u.EvaluateNoisySeeded(seed, x, length, screens, g)
					if err != nil {
						t.Fatal(err)
					}
					data, coef := seededSNGs(u.Circuit.P.Order, seed)
					ref := stochastic.NewGaussian(stochastic.NewSplitMix64(seed + 1))
					serial := walkSeeded(u, data, coef, x, length, func(dst []float64) { ref.FillScaled(dst, sigma) })
					if packed != serial {
						t.Errorf("%s σ=%g len %d x=%g: packed %g vs serial walk %g", tc.name, sigma, length, x, packed, serial)
					}
					if a, b := g.Next(), ref.Next(); a != b {
						t.Errorf("%s σ=%g len %d x=%g: Gaussian left at %g vs %g", tc.name, sigma, length, x, a, b)
					}
				}
			}
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
	g := stochastic.NewGaussian(stochastic.NewSplitMix64(1))
	if _, err := u.EvaluateNoisySeeded(1, 0.5, 0, u.Screens(0.1), g); err == nil {
		t.Error("seeded length 0 accepted")
	}
	if _, err := u.EvaluateNoisySeeded(1, 0.5, 16, nil, g); err == nil {
		t.Error("seeded nil screens accepted")
	}
	if _, err := u.EvaluateNoisySeeded(1, 0.5, 16, paperUnit(t, 4).Screens(0.1), g); err == nil {
		t.Error("another unit's screens accepted")
	}
	if _, err := u.EvaluateNoisySeeded(1, 0.5, 16, u.Screens(0.1), nil); err == nil {
		t.Error("seeded nil Gaussian accepted")
	}
}
