// The complex-field device model: the oracle for this package's
// intensity equations (Eqs. 2–3 and the MZI logic levels of Eq. 7b).
//
// Where the package implements the paper's intensity equations
// directly, these files build the same devices from primitive
// elements — directional couplers (2×2 unitary scattering), lossy
// phase-accumulating waveguide segments, and their compositions — and
// derive transmissions from complex field amplitudes:
//
//   - an add-drop micro-ring is a feedback loop between two couplers;
//     its through/drop amplitudes follow either from the closed-form
//     geometric-series sum or from explicit summation over round
//     trips (both provided);
//   - a Mach–Zehnder interferometer is two couplers around two lossy
//     phase arms; its cross-port intensity reproduces the IL/ER
//     behavioural model exactly.
//
// The tests in field_test.go and field_core_test.go prove the
// equivalences
//
//	|ring.Through|²  == optics.Ring.Through  (paper Eq. 2)
//	|ring.Drop|²     == optics.Ring.Drop     (paper Eq. 3)
//	|mzi.Cross|²     == IL%·(ER% + (1−ER%)·cos²(φ/2)), which is
//	                    optics.MZI.Transmission at φ = 0 and π (Eq. 7b)
//
// making the paper's equations a theorem of the interference model
// rather than an assumption of this reproduction.

package optics_test

import (
	"fmt"
	"math"
	"math/cmplx"
)

// Coupler is a lossless 2×2 directional coupler with field
// self-coupling t (bar) and cross-coupling κ, t² + κ² = 1. Its
// scattering relation for input fields (a, b) is
//
//	out_bar   = t·a + iκ·b
//	out_cross = iκ·a + t·b
//
// — the standard symmetric unitary form (the i encodes the 90° phase
// of evanescent cross-coupling).
type Coupler struct {
	T float64 // self (bar) field coupling
}

// NewCoupler validates t ∈ (0, 1].
func NewCoupler(t float64) (Coupler, error) {
	if t <= 0 || t > 1 {
		return Coupler{}, fmt.Errorf("field model: coupler t = %g outside (0,1]", t)
	}
	return Coupler{T: t}, nil
}

// Kappa returns the cross-coupling κ = √(1−t²).
func (c Coupler) Kappa() float64 {
	return math.Sqrt(1 - c.T*c.T)
}

// Scatter maps input fields (a, b) to (bar, cross) outputs.
func (c Coupler) Scatter(a, b complex128) (bar, cross complex128) {
	t := complex(c.T, 0)
	ik := complex(0, c.Kappa())
	return t*a + ik*b, ik*a + t*b
}

// Arm is a lossy, phase-accumulating waveguide segment: the field is
// multiplied by A·e^{iφ}.
type Arm struct {
	// Amplitude is the field amplitude transmission (power A²).
	Amplitude float64
	// PhaseRad is the accumulated optical phase.
	PhaseRad float64
}

// Propagate applies the arm to a field.
func (a Arm) Propagate(e complex128) complex128 {
	return e * cmplx.Rect(a.Amplitude, a.PhaseRad)
}

// Splitter5050 is the ideal 3 dB coupler used in the MZI.
var Splitter5050 = Coupler{T: 1 / math.Sqrt2}
