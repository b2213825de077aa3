package optics

import (
	"fmt"
	"math"
)

// Ring models an add-drop micro-ring resonator (paper Fig. 2b/2c).
// Two bus waveguides couple to the ring with self-coupling
// coefficients r1 (input bus) and r2 (drop bus); a is the single-pass
// amplitude transmission (round-trip loss). The resonance comb is
// anchored at ResonanceNM with free spectral range FSRNM.
//
// The same structure serves as:
//
//   - an electro-optic modulator: applying a drive voltage blue-shifts
//     the resonance by ShiftNM (paper's Δλ), moving the carrier off
//     resonance and raising the through-port transmission (Eq. 2);
//   - the all-optical multiplexing filter: the pump power injected via
//     two-photon absorption shifts the resonance by ΔFilter, selecting
//     which probe wavelength falls onto the drop port (Eq. 3).
type Ring struct {
	// SelfCoupling1 (r1) is the field self-coupling coefficient of
	// the input bus, in (0, 1].
	SelfCoupling1 float64
	// SelfCoupling2 (r2) is the field self-coupling coefficient of
	// the drop bus, in (0, 1]. Set to 1 for an all-pass (no drop
	// waveguide) ring.
	SelfCoupling2 float64
	// Amplitude (a) is the single-pass amplitude transmission of the
	// ring, in (0, 1]; 1 means a lossless ring.
	Amplitude float64
	// ResonanceNM is the cold (unshifted) resonant wavelength in nm.
	ResonanceNM float64
	// FSRNM is the free spectral range in nm; it fixes the ring's
	// mode order m = round(ResonanceNM / FSRNM).
	FSRNM float64
}

// Validate reports whether the ring parameters are physical.
func (r Ring) Validate() error {
	switch {
	case !(r.SelfCoupling1 > 0 && r.SelfCoupling1 <= 1):
		return fmt.Errorf("optics: ring r1 = %g outside (0,1]", r.SelfCoupling1)
	case !(r.SelfCoupling2 > 0 && r.SelfCoupling2 <= 1):
		return fmt.Errorf("optics: ring r2 = %g outside (0,1]", r.SelfCoupling2)
	case !(r.Amplitude > 0 && r.Amplitude <= 1):
		return fmt.Errorf("optics: ring a = %g outside (0,1]", r.Amplitude)
	case !(r.ResonanceNM > 0) || math.IsInf(r.ResonanceNM, 1):
		return fmt.Errorf("optics: ring resonance %g nm not positive and finite", r.ResonanceNM)
	case !(r.FSRNM > 0 && r.FSRNM < r.ResonanceNM):
		return fmt.Errorf("optics: ring FSR %g nm not in (0, resonance)", r.FSRNM)
	}
	return nil
}

// ModeOrder returns the azimuthal mode order m implied by the
// resonance wavelength and FSR. The single-pass phase is
// θ(λ) = 2π m λres/λ, which is ≡ 0 (mod 2π) exactly at λres and
// produces resonances spaced by ≈FSR.
func (r Ring) ModeOrder() float64 {
	return math.Round(r.ResonanceNM / r.FSRNM)
}

// Phase returns the single-pass phase shift θ(λ, λres) in radians for
// a signal at lambdaNM when the ring resonance sits at resonanceNM.
// Shifting the resonance rescales the optical path length, which is
// how both the electro-optic and the TPA tuning act on the ring.
func (r Ring) Phase(lambdaNM, resonanceNM float64) float64 {
	m := r.ModeOrder()
	return 2 * math.Pi * m * resonanceNM / lambdaNM
}

// Through returns the through-port power transmission φt(λ, λres)
// of the paper's Eq. (2):
//
//	φt = (a²r2² − 2 a r1 r2 cosθ + r1²) / (1 − 2 a r1 r2 cosθ + (a r1 r2)²)
//
// resonanceNM is the instantaneous (possibly shifted) resonant
// wavelength.
func (r Ring) Through(lambdaNM, resonanceNM float64) float64 {
	cos := math.Cos(r.Phase(lambdaNM, resonanceNM))
	a, r1, r2 := r.Amplitude, r.SelfCoupling1, r.SelfCoupling2
	num := a*a*r2*r2 - 2*a*r1*r2*cos + r1*r1
	den := 1 - 2*a*r1*r2*cos + a*a*r1*r1*r2*r2
	return num / den
}

// Drop returns the drop-port power transmission φd(λ, λres) of the
// paper's Eq. (3):
//
//	φd = a (1−r1²)(1−r2²) / (1 − 2 a r1 r2 cosθ + (a r1 r2)²)
func (r Ring) Drop(lambdaNM, resonanceNM float64) float64 {
	cos := math.Cos(r.Phase(lambdaNM, resonanceNM))
	a, r1, r2 := r.Amplitude, r.SelfCoupling1, r.SelfCoupling2
	num := a * (1 - r1*r1) * (1 - r2*r2)
	den := 1 - 2*a*r1*r2*cos + a*a*r1*r1*r2*r2
	return num / den
}

// FWHMNM returns the full width at half maximum of the drop-port
// resonance in nm:
//
//	FWHM = FSR (1 − a r1 r2) / (π sqrt(a r1 r2))
func (r Ring) FWHMNM() float64 {
	p := r.Amplitude * r.SelfCoupling1 * r.SelfCoupling2
	return r.FSRNM * (1 - p) / (math.Pi * math.Sqrt(p))
}

// String implements fmt.Stringer.
func (r Ring) String() string {
	return fmt.Sprintf("Ring(λres=%.3fnm, FSR=%.2fnm, r1=%.4f, r2=%.4f, a=%.4f, FWHM=%.4fnm)",
		r.ResonanceNM, r.FSRNM, r.SelfCoupling1, r.SelfCoupling2, r.Amplitude, r.FWHMNM())
}
