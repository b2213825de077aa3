package optics

import (
	"fmt"
	"math"
)

// APD models a linear-mode avalanche photodiode, the high-
// responsivity detector the paper proposes for the optical
// de-randomizer (future work, ref [21]). Impact ionization
// multiplies the photocurrent by the avalanche gain M at the cost of
// an excess noise factor, conventionally modeled as F(M) = M^x with
// excess noise exponent x ∈ [0, 1].
//
// Relative to a pin detector with the same thermal noise floor, the
// worst-case SNR improves by M/√F(M) = M^(1−x/2): the signal current
// gains M while the amplified shot-noise contribution grows as
// M√F(M). The model keeps the thermal floor dominant, which matches
// the received-power regime of the paper (tens to hundreds of µW).
type APD struct {
	// ResponsivityAPerW is the unity-gain responsivity R.
	ResponsivityAPerW float64
	// Gain is the avalanche multiplication factor M (>= 1).
	Gain float64
	// ExcessNoiseExp is x in F(M) = M^x.
	ExcessNoiseExp float64
	// NoiseCurrentA is the thermal/readout noise floor i_n.
	NoiseCurrentA float64
}

// Validate reports whether the APD parameters are physical.
func (a APD) Validate() error {
	if a.ResponsivityAPerW <= 0 {
		return fmt.Errorf("optics: APD responsivity %g not positive", a.ResponsivityAPerW)
	}
	if a.Gain < 1 {
		return fmt.Errorf("optics: APD gain %g < 1", a.Gain)
	}
	if a.ExcessNoiseExp < 0 || a.ExcessNoiseExp > 1 {
		return fmt.Errorf("optics: APD excess noise exponent %g outside [0,1]", a.ExcessNoiseExp)
	}
	if a.NoiseCurrentA <= 0 {
		return fmt.Errorf("optics: APD noise current %g not positive", a.NoiseCurrentA)
	}
	return nil
}

// ExcessNoiseFactor returns F(M) = M^x.
func (a APD) ExcessNoiseFactor() float64 {
	return math.Pow(a.Gain, a.ExcessNoiseExp)
}

// SNRImprovement returns the worst-case SNR gain over a pin detector
// with the same R and i_n: M/√F(M).
//
//osclint:ignore testonly tests in optics and core share it: the closed-form M/sqrt(F(M)) the effective detector must reproduce
func (a APD) SNRImprovement() float64 {
	return a.Gain / math.Sqrt(a.ExcessNoiseFactor())
}

// EffectiveDetector folds the avalanche gain into an equivalent pin
// Photodetector so the rest of the model (Eq. 8) applies unchanged:
// responsivity R·M against a noise floor inflated by √F(M).
func (a APD) EffectiveDetector() Photodetector {
	return Photodetector{
		ResponsivityAPerW: a.ResponsivityAPerW * a.Gain,
		NoiseCurrentA:     a.NoiseCurrentA * math.Sqrt(a.ExcessNoiseFactor()),
	}
}

// PaperAPD returns an APD representative of the high-responsivity
// CMOS-integrated device of Steindl et al. [21]: unity-gain
// responsivity 0.4 A/W boosted by an avalanche gain of ~25 with a
// moderate excess noise exponent.
func PaperAPD(noiseCurrentA float64) APD {
	return APD{
		ResponsivityAPerW: 0.4,
		Gain:              25,
		ExcessNoiseExp:    0.7,
		NoiseCurrentA:     noiseCurrentA,
	}
}
